"""Pluggable distributed communication substrate.

This package replaces the paper's PyTorch + NCCL + Perlmutter stack with
swappable communicator backends behind one abstract interface:

* :mod:`repro.comm.base`        — the :class:`Communicator` ABC every
  distributed algorithm in :mod:`repro.core` is written against,
* :mod:`repro.comm.simulator`   — :class:`SimCommunicator`, deterministic
  alpha-beta simulation (the reproduction's benchmark backend),
* :mod:`repro.comm.threaded`    — :class:`ThreadedCommunicator`, real
  shared-memory execution with one worker thread per rank,
* :mod:`repro.comm.process`     — :class:`ProcessPoolCommunicator`, one OS
  process per rank with shared-memory transport (no shared interpreter
  state between ranks),
* :mod:`repro.comm.factory`     — :func:`make_communicator` /
  :func:`register_backend`, the backend registry call sites go through,
* :mod:`repro.comm.faults`      — deterministic fault injection
  (:class:`FaultPlan`) and the structured :class:`WorkerFailure` every
  backend raises when a rank is lost,
* :mod:`repro.comm.machine`     — alpha-beta machine models (Perlmutter preset),
* :mod:`repro.comm.events`      — per-message event log,
* :mod:`repro.comm.timeline`    — per-rank clocks and category attribution,
* :mod:`repro.comm.collectives` — cost formulas for collectives.

See ``docs/backends.md`` for how to pick a backend and how to add one.
"""

from .base import (CommHandle, CompletedCommHandle, Communicator,
                   payload_nbytes, reduce_stack)
from .events import CommEvent, EventLog
from .factory import (BACKENDS, available_backends, make_communicator,
                      register_backend)
from .faults import (FaultPlan, FaultSpec, WatchdogTimeout,
                     WorkerFailure)
from .machine import (MachineModel, PRESETS, get_machine, laptop, perlmutter,
                      perlmutter_scaled)
from .process import ProcessPoolCommunicator
from .simulator import SimCommunicator
from .threaded import ThreadedCommunicator
from .timeline import Timeline, WAIT_CATEGORY

__all__ = [
    "CommHandle",
    "CompletedCommHandle",
    "Communicator",
    "payload_nbytes",
    "reduce_stack",
    "BACKENDS",
    "available_backends",
    "make_communicator",
    "register_backend",
    "FaultPlan",
    "FaultSpec",
    "WatchdogTimeout",
    "WorkerFailure",
    "ThreadedCommunicator",
    "ProcessPoolCommunicator",
    "CommEvent",
    "EventLog",
    "MachineModel",
    "PRESETS",
    "get_machine",
    "laptop",
    "perlmutter",
    "perlmutter_scaled",
    "SimCommunicator",
    "Timeline",
    "WAIT_CATEGORY",
]
