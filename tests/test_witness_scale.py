"""Scale invariance of the n >= 3 equitability witness LP, as a property test."""
import numpy as np
import pytest

from ccm import polytope as pt
from ccm import solutions as sol
from ccm.tolerances import EPS_GEOM

from _oracles import reaches_witness_lp

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def _affinely_mapped_sets(draw):
    n = draw(st.sampled_from([3, 4]))
    m = draw(st.integers(n, 7))
    cell = st.integers(1, 16)
    pts = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    gens = np.vstack([np.array(pts, dtype=float) / 8.0, np.zeros(n)])
    log_a = draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n))
    shift = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    a = 10.0 ** np.array(log_a)
    # The translation is in each agent's own units: a translation far above
    # an agent's spread would round its payoffs away at any precision.
    return gens, a, a * np.array(shift)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50, database=None)
@hypothesis.given(_affinely_mapped_sets())
def test_witness_lp_is_invariant_under_per_agent_affine_maps(case):
    gens, a, z = case
    B = pt.Polytope(gens)
    hypothesis.assume(B.full_dimensional)
    mapped = pt.Polytope(gens * a + z)
    x = sol.nash_solution(B)
    points = [x] + [g for g in pt._maximal_rows(gens) if reaches_witness_lp(B, g)]
    for y in points:
        ok, _, v = sol._witness_lp(B, y, EPS_GEOM)
        ok_mapped, _, v_mapped = sol._witness_lp(mapped, a * y + z, EPS_GEOM)
        assert ok_mapped == ok
        assert abs(v_mapped - v) <= 1e-9
    assert sol._witness_lp(B, x, EPS_GEOM)[0]
