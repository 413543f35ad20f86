"""The start census: 13 solves that a change to starts, steps or faces must keep.

Deselected by default (28 tests, about 15 s); run with `pytest -m census`.  Every
solve uses gs = 0.8 and the default starts and seed, and must certify.
Its value is pinned to 1e-12 relative: on supports starting at 0 to the
value recorded before the cone's floor moved to `lo` (those solves run the
same arithmetic).  The uniform edge optima (`UNIFORM_EDGE_OPTIMA`, and
`uniform:2,3` at T = 2) are checked against `uniform_face_optimum` in
tier-1 (`test_optimizer.py`), so they are not repeated here.
Every row has support width 1 and a first seller weight of 1, so one more
test reruns `texp:50,1` at T = 3 on supports 2^-20 and 2^20 wide (the
same solve in another valuation unit) and with the seller's weights
scaled by 2^-40 and 2^30 (the same solve in another revenue unit).

Fourteen continued sweeps (`CONTINUED_SWEEPS`), at T = 2 to 6 and on two
tau ladders (tau 2 to 6), check the reduced start list that a warm start
runs: on families with more than one basin, each row of a `sweep` must
reach the value of the full multi-start, and certify wherever it does.
"""

import numpy as np
import pytest

from postedprice import (DiscountSequence, TruncatedExponential, make_geometric_discount,
                         maximize_L, parse_distribution)
from test_cli import recorded_sweep
from test_optimizer import game

pytestmark = pytest.mark.census

# (spec, "T<n>" or "tau<n>", gb) -> value
CENSUS = {
    ("uniform:0,1", "T6", 0.3): 1.1601430811586457,
    ("uniform:0,1", "T3", 0.62): 0.6255309568854978,
    ("uniform:0,1", "tau6", 0.2): 1.7711812169537322,
    ("beta:4,2", "T3", 0.3): 1.072397474066283,
    ("beta:4,2", "T5", 0.3): 1.5618097058097709,
    ("beta:4,2", "tau6", 0.2): 2.557293666381432,
    ("beta:0.5,0.5", "T3", 0.3): 0.7098106452623213,
    ("beta:0.5,0.5", "T5", 0.3): 1.0640918380086224,
    ("beta:0.5,0.5", "tau6", 0.2): 1.8220408780997457,
    ("texp:50,1", "T3", 0.3): 0.021015382452953316,
    ("texp:50,1", "T4", 0.3): 0.027357946438212575,
    ("texp:50,1", "tau6", 0.2): 0.06113738779277095,
    # k = 15 is past the face enumeration: pinned at the first certified solve
    ("uniform:2,3", "T4", 0.3): 5.932227317554244,
}


@pytest.mark.parametrize("spec, depth, gb_rate", list(CENSUS))
def test_census_solve_certifies_at_its_pinned_value(spec, depth, gb_rate):
    buyer, seller = game(depth, gb_rate, 0.8)
    result = maximize_L(parse_distribution(spec), buyer, seller)
    assert result.converged
    assert result.value == pytest.approx(CENSUS[spec, depth, gb_rate], rel=1e-12)


def test_a_scaled_texp_solve_is_the_same_solve():
    buyer, seller = make_geometric_discount(0.3, 3), make_geometric_discount(0.8, 3)
    base = maximize_L(TruncatedExponential(50.0, 1.0), buyer, seller)
    assert base.converged
    for H in (2.0 ** -20, 2.0 ** 20):  # the valuation unit
        result = maximize_L(TruncatedExponential(50.0 / H, H), buyer, seller)
        assert result.value == H * base.value, H
        assert np.array_equal(result.v_star, H * base.v_star), H
        assert (result.iterations, result.converged) == (base.iterations, True), H
    for c in (2.0 ** -40, 2.0 ** 30):  # the seller's revenue unit
        scaled = DiscountSequence([c * w for w in seller.weights])
        result = maximize_L(TruncatedExponential(50.0, 1.0), buyer, scaled)
        assert result.value == c * base.value, c
        assert np.array_equal(result.v_star, base.v_star), c
        assert (result.iterations, result.converged) == (base.iterations, True), c


# (spec, "T<n>" or "tau<n>,<n>,...", grid step, grid count) of a sweep over
# gb = 0.01 + i * step at gs = 0.8: the 149-point figure grid, or a thinned
# one where the full multi-start is slow (a thinner grid puts each warm start
# further from its row's optimum)
CONTINUED_SWEEPS = [
    ("beta:4,2", "T2", 0.005, 149),
    ("beta:0.5,0.5", "T2", 0.005, 149),
    ("texp:50,1", "T2", 0.02, 38),  # about 4 s with the full list; 24 s on all 149 points
    ("uniform:2,3", "T2", 0.005, 149),
    ("beta:4,2", "T3", 0.02, 38),
    ("beta:0.5,0.5", "T3", 0.02, 38),
    ("beta:4,2", "T4", 0.04, 19),
    ("beta:0.5,0.5", "T4", 0.04, 19),
    ("beta:4,2", "T5", 0.08, 10),
    ("beta:0.5,0.5", "T5", 0.04, 19),
    ("beta:4,2", "T6", 0.24, 4),
    ("beta:0.5,0.5", "T6", 0.08, 10),
    ("beta:4,2", "tau2,3,4,5,6", 0.24, 3),
    ("beta:0.5,0.5", "tau2,3,4,5,6", 0.12, 6),
]


@pytest.mark.parametrize("spec, depths, step, count", CONTINUED_SWEEPS)
def test_a_continued_sweep_keeps_the_full_multi_start_value(monkeypatch, spec, depths,
                                                            step, count):
    flag = ["--horizon", depths[1:]] if depths.startswith("T") else ["--tau-list", depths[3:]]
    solves = recorded_sweep(monkeypatch, "--dist", spec, "--fix", "gs", "--fixed-value",
                            "0.8", *flag, "--grid-step", str(step), "--grid-count", str(count))
    first_row = len(depths.split(","))
    assert len(solves) == count * first_row
    for args, kwargs, continued in solves[first_row:]:
        assert kwargs["warm"] is not None
        full = maximize_L(*args)
        assert continued.value >= full.value * (1 - 1e-12), args[1]
        assert continued.converged or not full.converged, args[1]
