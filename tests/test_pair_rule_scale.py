"""Scale invariance of the two-agent closed-form log-welfare optimum, as a property test."""
import numpy as np
import pytest

from ccm import _logmax

from _oracles import nash_point_on_chain

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def _scaled_batches(draw):
    m = draw(st.integers(2, 6))
    cell = st.integers(0, 8)
    cols = np.array(draw(st.lists(st.lists(cell, min_size=2, max_size=2), min_size=m, max_size=m)), float) / 8.0
    # A twin of the first column and the midpoint of the next two: ties in
    # the product and a flat face whenever those columns are optimal.
    cols = np.vstack([cols, cols[0], (cols[1] + cols[2 % m]) / 2.0])
    shifts = np.array(draw(st.lists(st.lists(cell, min_size=2, max_size=2), min_size=1, max_size=12)), float) / 16.0
    C = np.maximum(cols.T[None] - shifts[:, :, None], 0.0)
    C = C[(C.max(axis=2) > 0).all(axis=1)]
    log_a = draw(st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=2))
    return C, 10.0 ** np.array(log_a)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200, database=None)
@hypothesis.given(_scaled_batches())
def test_two_agent_optimum_is_invariant_under_per_agent_scales(case):
    C, a = case
    hypothesis.assume(len(C))
    lam, _, _ = _logmax.maximize_log_sum_batch(C)
    lam_a, _, _ = _logmax.maximize_log_sum_batch(C * a[None, :, None])
    for cell, (q, q_a) in enumerate(zip(lam, lam_a)):
        assert np.array_equal(q > 0, q_a > 0), cell
        ref = nash_point_on_chain(C[cell].T, np.zeros(2))
        assert (np.abs(C[cell] @ q - ref) <= 1e-12 * ref).all()
        assert (np.abs((C[cell] * a[:, None]) @ q_a / a - ref) <= 1e-12 * ref).all()
