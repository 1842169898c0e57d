"""In-place reductions equal ``reduce_stack`` byte for byte.

The process backend's workers reduce straight into the recv-arena slab
(:func:`repro.comm.base.reduce_into`) and compute each reduction of a
command once, giving an allreduce's other member slabs a byte copy.
Bit-identity across backends rests on that being exactly
``reduce_stack``: the properties below cover ``k`` = 1..16 members
(the zero-started fold below 8, ``reduce_stack`` from 8 on), one-element
payloads, signed zeros, infinities and NaN, both float widths, mixed
dtypes, every op and ``force_float64`` — on the helper directly and
through real 2- and 4-rank process communicators, under and over the
grouped-copy threshold.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.comm.base import FOLD_MAX_MEMBERS, reduce_into, reduce_stack
from repro.comm.process import GROUPED_COPY_MAX_BYTES, ProcessPoolCommunicator

SHAPES = [(1,), (1, 1), (3,), (2, 3), (4, 1)]
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
ELEMENTS = st.one_of(st.sampled_from(SPECIALS),
                     st.floats(-1e6, 1e6, allow_nan=False, width=32),
                     st.floats(-1e-6, 1e-6, allow_nan=False))


@st.composite
def payloads(draw, members=st.integers(1, 16)):
    """``(arrays, op, force_float64)``: ``k`` same-shape payloads, all of
    one float width or mixed."""
    k = draw(members)
    shape = draw(st.sampled_from(SHAPES))
    widths = draw(st.sampled_from(["float64", "float32", "mixed"]))
    arrays = []
    for i in range(k):
        dtype = widths if widths != "mixed" else \
            ("float32", "float64")[draw(st.integers(0, 1))]
        values = draw(st.lists(ELEMENTS, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        arrays.append(np.array(values, dtype=dtype).reshape(shape))
    op = draw(st.sampled_from(["sum", "max", "min"]))
    return arrays, op, draw(st.booleans())


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


# A sum of signed zeros is +0.0 only from a zero start.
NEGATIVE_ZEROS = ([np.full((1,), -0.0)] * 2, "sum", False)
# From 8 members numpy sums a one-element payload pairwise, not as a
# left fold.
PAIRWISE = ([np.array([v]) for v in (1.0, 1e16, -1e16, 1.0, 1.0, 1e16,
                                     -1e16, 3.0)], "sum", False)
# numpy sums a one-element payload keeping the first NaN's sign; a fold
# keeps the last one's.
NAN_SIGNS = ([np.zeros(1), np.zeros(1), np.full(1, np.nan),
              np.full(1, -np.nan)], "sum", False)


class TestHelper:
    @settings(max_examples=400, deadline=None)
    @given(payloads())
    @example(NEGATIVE_ZEROS)
    @example(PAIRWISE)
    @example(NAN_SIGNS)
    def test_reduce_into_equals_reduce_stack(self, case):
        arrays, op, force64 = case
        want = reduce_stack(arrays, op, force_float64=force64)
        out = np.full(want.shape, 7.0, dtype=want.dtype)
        assert reduce_into(out, arrays, op, force_float64=force64) is out
        assert_same_bytes(out, want)

    def test_the_fold_stops_where_numpy_sums_pairwise(self):
        assert FOLD_MAX_MEMBERS == 8
        arrays = PAIRWISE[0]
        fold = np.zeros(1)
        for part in arrays:
            np.add(fold, part, out=fold)
        assert fold.tobytes() != reduce_stack(arrays, "sum").tobytes()

    def test_output_dtype_must_match(self):
        with pytest.raises(ValueError, match="dtype"):
            reduce_into(np.empty(2, np.float32), [np.ones(2)] * 8, "sum")


@pytest.fixture(scope="module", params=[2, 4], ids=["p2", "p4"])
def comm(request):
    with ProcessPoolCommunicator(request.param, timeout_s=120.0) as comm:
        yield comm


class TestWorkerPath:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_allreduce_and_reduce_equal_reduce_stack(self, comm, data):
        arrays, op, force64 = data.draw(payloads(st.just(comm.nranks)))
        if force64 and op != "min":
            # The rooted reduce (sum / max) is the backend's
            # force_float64 path.
            root = data.draw(st.integers(0, comm.nranks - 1))
            got = comm.reduce(arrays, root=root, op=op)[root]
        else:
            force64 = False
            got = data.draw(st.sampled_from([
                lambda: comm.allreduce(arrays, op=op),
                lambda: comm.iallreduce(arrays, op=op).wait()]))()
        want = reduce_stack(arrays, op, force_float64=force64)
        for result in (got if isinstance(got, list) else [got]):
            assert_same_bytes(np.asarray(result), want)

    def test_signed_zero_sum(self, comm):
        arrays = [np.full((1, 1), -0.0)] * comm.nranks
        for result in comm.allreduce(arrays):
            assert_same_bytes(result, reduce_stack(arrays, "sum"))

    def test_nan_sign_sum(self, comm):
        arrays = NAN_SIGNS[0][-comm.nranks:]
        for result in comm.allreduce(arrays):
            assert_same_bytes(result, reduce_stack(arrays, "sum"))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_per_member_plans_over_the_grouped_threshold(self, comm, dtype):
        """Each member reduces into its own slab when the step is too big
        for one courier; the results still agree byte for byte."""
        n = GROUPED_COPY_MAX_BYTES // np.dtype(dtype).itemsize
        rng = np.random.default_rng(comm.nranks)
        arrays = [rng.standard_normal(n).astype(dtype)
                  for _ in range(comm.nranks)]
        arrays[0][:3] = [-0.0, np.inf, np.nan]
        want = reduce_stack(arrays, "sum")
        for result in comm.allreduce(arrays):
            assert_same_bytes(result, want)
