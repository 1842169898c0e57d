"""Communicator backend table and factory.

Call sites never instantiate a concrete communicator class; they ask the
factory for one by name::

    from repro.comm import make_communicator

    comm = make_communicator(8)                       # sim backend
    comm = make_communicator(8, backend="threaded")   # real worker threads
    comm = make_communicator(8, backend="process")    # one OS process/rank

A new backend (MPI, GPU models, ...) is one more :data:`BACKENDS` entry;
no call site changes (see ``docs/backends.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .base import Communicator
from .process import ProcessPoolCommunicator
from .simulator import SimCommunicator
from .threaded import ThreadedCommunicator

__all__ = ["BACKENDS", "available_backends", "make_communicator"]

#: name -> factory callable ``(nranks, **kwargs) -> Communicator``; a
#: factory tolerates a ``machine`` keyword (ignoring it if meaningless
#: for the backend) so that configuration objects can be backend-agnostic.
BACKENDS: Dict[str, Callable[..., Communicator]] = {
    "sim": SimCommunicator,
    "threaded": ThreadedCommunicator,
    "process": ProcessPoolCommunicator,
}


def available_backends() -> List[str]:
    """Names of all communicator backends."""
    return sorted(BACKENDS)


def make_communicator(nranks: int, backend: str = "sim",
                      **kwargs) -> Communicator:
    """Build a communicator for ``nranks`` ranks on the named backend.

    Parameters
    ----------
    nranks:
        Number of ranks (simulated clocks or real workers).
    backend:
        Backend name; see :func:`available_backends`.
    **kwargs:
        Forwarded to the backend factory (e.g. ``machine="perlmutter"``
        for the simulator; real backends ignore the machine model).
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown communicator backend {backend!r}; "
            f"available: {available_backends()}") from None
    return factory(nranks, **kwargs)
