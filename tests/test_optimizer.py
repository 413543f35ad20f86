from itertools import product

import numpy as np
import pytest

from postedprice import (Beta, DiscountSequence, InvalidParameterError,
                         L_gradient, L_value, PatienceOrderWarning, Uniform,
                         build_system, discount_rates, expected_strategic_revenue,
                         make_geometric_discount, maximize_L, myerson_price, parse_distribution,
                         project_to_delta, rate_order_satisfied, truncate,
                         uniform_face_optimum)
from postedprice import optimizer
from postedprice.core import _pointwise_leq
from postedprice.optimizer import _gradient_mapping, maximize_bilinear
from postedprice.reduction import reduced_T2_functional
from test_acceptance import REGRESSION_TAU_VALUES
from test_oracle import UNIFORM_EDGE_OPTIMA


# ---------------------------------------------------------------------------
# projection


def test_projection_pools_violators():
    assert project_to_delta([3.0, 1.0, 2.0], 0.0) == pytest.approx([2.0, 2.0, 2.0])


def test_projection_is_identity_on_feasible_points():
    x = np.array([0.0, 0.2, 0.2, 0.9])
    assert project_to_delta(x, 0.0) == pytest.approx(x)
    assert project_to_delta(project_to_delta([3.0, -1.0, 2.0], 0.0), 0.0) == pytest.approx(
        project_to_delta([3.0, -1.0, 2.0], 0.0))


def test_projection_clamps_negatives():
    assert project_to_delta([-3.0, -1.0, -2.0], 0.0) == pytest.approx([0.0, 0.0, 0.0])
    assert project_to_delta([-1.0, 0.5], 0.0) == pytest.approx([0.0, 0.5])


def test_projection_is_closest_feasible_point():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        x = rng.normal(0.0, 2.0, k)
        proj = project_to_delta(x, 0.0)
        d_proj = np.linalg.norm(x - proj)
        for _ in range(50):
            candidate = np.sort(np.abs(rng.normal(0.0, 2.0, k)))
            assert d_proj <= np.linalg.norm(x - candidate) + 1e-12


# ---------------------------------------------------------------------------
# discount rates


def test_discount_rates_examples():
    assert discount_rates(make_geometric_discount(0.5, 3)) == pytest.approx((0.5, 0.5))
    assert discount_rates(DiscountSequence([1.0, 0.8, 0.64])) == pytest.approx((0.8, 0.8))
    assert discount_rates(DiscountSequence([1.0, 0.0])) == (0.0,)


def test_rate_order():
    gb = make_geometric_discount(0.2, 3)
    gs = make_geometric_discount(0.8, 3)
    assert rate_order_satisfied(gb, gs)
    assert not rate_order_satisfied(gs, gb)
    assert rate_order_satisfied(gb, gb)
    # an aggregated tail can only raise the final seller rate
    assert rate_order_satisfied(DiscountSequence([1.0, 0.2, 0.05]),
                                DiscountSequence([1.0, 0.8, 3.2]))
    assert _pointwise_leq(gb, gs) and not _pointwise_leq(gs, gb)


@pytest.mark.parametrize("predicate", [rate_order_satisfied, _pointwise_leq])
def test_patience_predicates_take_one_finite_game(predicate):
    g = make_geometric_discount
    for a, b in [(g(0.2, 2), g(0.8, 3)), (g(0.2, 3), g(0.9, 2))]:
        with pytest.raises(InvalidParameterError):
            predicate(a, b)


# ---------------------------------------------------------------------------
# maximization


def test_equal_discounts_recover_constant_pricing():
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5, 2)
    result = maximize_L(u, g, g, starts=8, seed=0)
    assert result.value == pytest.approx(0.25 * g.total, abs=1e-6)
    assert result.v_star == pytest.approx([0.5, 0.5, 0.5], abs=1e-4)
    assert result.converged
    assert np.allclose(list(result.tree.prices().values()), 0.5, atol=1e-4)


def test_optimum_beats_constant_baseline():
    u = Uniform(0, 1)
    for gs_rate, gb_rate in [(0.8, 0.2), (0.7, 0.4), (0.9, 0.6)]:
        gb = make_geometric_discount(gb_rate, 2)
        gs = make_geometric_discount(gs_rate, 2)
        result = maximize_L(u, gb, gs, starts=8, seed=1)
        assert result.value >= gs.total * 0.25 - 1e-6


def test_maximize_needs_at_least_one_start():
    g = make_geometric_discount(0.5, 2)
    for starts in (0, -1, 2.5, "3", True):
        with pytest.raises(InvalidParameterError, match="starts must be a positive integer"):
            maximize_L(Uniform(0, 1), g, g, starts=starts)


def test_warns_when_rate_order_is_violated():
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.8, 2)
    gs = make_geometric_discount(0.2, 2)
    with pytest.warns(PatienceOrderWarning):
        maximize_L(u, gb, gs, starts=4, seed=0)


def test_result_value_is_L_at_v_star():
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.3, 2)
    gs = make_geometric_discount(0.8, 2)
    result = maximize_L(u, gb, gs, starts=8, seed=5)
    sys_ = build_system(gb, gs)
    assert result.value == pytest.approx(L_value(sys_.Xi, u, result.v_star), abs=1e-12)
    assert result.v_star[0] >= 0 and np.all(np.diff(result.v_star) >= 0)


def test_converged_when_a_tied_run_certified():
    # at T=5 most starts certify, but the lexicographically smallest of the
    # tied best points belongs to a run that stopped short of the tolerance
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.3, 5)
    gs = make_geometric_discount(0.8, 5)
    result = maximize_L(u, gb, gs)
    assert result.converged
    assert result.kkt_residual <= 1e-9


def test_deterministic_given_seed():
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.35, 2)
    gs = make_geometric_discount(0.75, 2)
    a = maximize_L(u, gb, gs, starts=8, seed=9)
    b = maximize_L(u, gb, gs, starts=8, seed=9)
    assert a.value == b.value
    assert a.v_star == pytest.approx(b.v_star, abs=0.0)


def test_ascent_improves_on_every_start_value():
    u = Uniform(0, 1)
    matrix = reduced_T2_functional(0.8, 0.2)
    v, value, iters, ok, kkt = maximize_bilinear(matrix, u, starts=6, seed=0)
    # the run must end at least as high as the best starting value it saw
    start_value = L_value(matrix, u, np.full(2, 0.5))
    assert value >= start_value - 1e-12
    assert iters >= 1


@pytest.mark.parametrize("spec", ["uniform:0,1", "uniform:2,3"])
@pytest.mark.parametrize("T", [2, 3])
@pytest.mark.parametrize("gb_rate", [0.1, 0.3])
def test_value_never_below_the_constant_myerson_tree(spec, T, gb_rate):
    # start 0 is the constant tree at p*, which lies in the cone; on
    # uniform:2,3 the fixed-step fallback used to walk it below its start
    dist = parse_distribution(spec)
    seller = make_geometric_discount(0.8, T)
    result = maximize_L(dist, make_geometric_discount(gb_rate, T), seller, starts=4)
    _, h_star = myerson_price(dist)
    assert result.value >= seller.total * h_star * (1 - 1e-12)


@pytest.mark.parametrize("spec", ["uniform:1e308,1.7e308", "uniform:0,1.7e308"])
def test_a_form_that_is_not_finite_at_a_start_is_refused(monkeypatch, spec):
    # refused after the start's own projection, with no RuntimeWarning
    project, calls = optimizer.project_to_delta, []

    def counted(x, lo):
        calls.append(None)
        return project(x, lo)

    monkeypatch.setattr(optimizer, "project_to_delta", counted)
    game = truncate(0.3, 0.8, 2)
    with pytest.raises(InvalidParameterError, match="not finite at start 0"):
        maximize_L(parse_distribution(spec), game.buyer, game.seller, starts=2)
    assert len(calls) == 1


def test_a_non_finite_later_run_refuses_the_solve(monkeypatch):
    # the finite runs would understate an optimum that overflows
    matrix, u = reduced_T2_functional(0.8, 0.2), Uniform(0, 1)
    ascent, calls = optimizer._projected_ascent, []

    def second_run_nan(*args):
        x, f, it, ok, kkt = ascent(*args)
        calls.append(None)
        return x, (np.nan if len(calls) == 2 else f), it, ok, kkt

    monkeypatch.setattr(optimizer, "_projected_ascent", second_run_nan)
    with pytest.raises(InvalidParameterError, match="not finite at start 1"):
        maximize_bilinear(matrix, u, starts=6)


# ---------------------------------------------------------------------------
# face-Newton polish


@pytest.mark.parametrize("tau", sorted(REGRESSION_TAU_VALUES))
def test_polish_certifies_the_pinned_tau_ladder(tau):
    game = truncate(0.2, 0.8, tau)
    result = maximize_L(Uniform(0, 1), game.buyer, game.seller, starts=8, seed=1)
    assert result.converged
    assert result.kkt_residual <= 1e-12
    assert abs(result.value - REGRESSION_TAU_VALUES[tau]) <= 1e-7


def test_polish_certifies_with_a_varying_density():
    # Beta(4, 2) has a non-zero density derivative, so Newton takes several steps
    gb = make_geometric_discount(0.3, 3)
    gs = make_geometric_discount(0.8, 3)
    result = maximize_L(Beta(4, 2), gb, gs)
    assert result.converged
    assert result.kkt_residual <= 1e-12


@pytest.mark.parametrize("max_iter", [1, 3, 4])
def test_newton_steps_count_toward_max_iter(monkeypatch, max_iter):
    monkeypatch.setattr(optimizer, "MAX_ITER", max_iter)
    gb = make_geometric_discount(0.3, 3)
    gs = make_geometric_discount(0.8, 3)
    result = maximize_L(Beta(4, 2), gb, gs)
    assert 1 <= result.iterations <= result.starts * max_iter
    assert result.v_star.shape == (7,)


# the exact T = 2 plane-collapse optima on U[0, 1], as (gs, gb): (v, value)
T2_KERNEL_OPTIMA = {
    (0.8, 0.2): ([0.3361344537815126, 0.5630252100840336], 0.48403361344537815),
    (0.6, 0.3): ([0.38613861386138615, 0.5445544554455446], 0.4118811881188119),
    (0.9, 0.45): ([0.390134529147982, 0.5605381165919282], 0.4941704035874439),
}


def test_face_optimum_matches_gradient_path_on_the_T2_kernel():
    u = Uniform(0, 1)
    for rates, (v_exact, value_exact) in T2_KERNEL_OPTIMA.items():
        matrix = reduced_T2_functional(*rates)
        v, value = uniform_face_optimum(matrix, u)
        assert value == pytest.approx(value_exact, abs=1e-15)
        assert v == pytest.approx(v_exact, abs=1e-15)
        v_pg, value_pg, _, _, _ = maximize_bilinear(matrix, u, starts=8, seed=2)
        assert value_pg == pytest.approx(value, abs=1e-9)
        assert v_pg == pytest.approx(v, abs=1e-4)


@pytest.mark.parametrize("T, gb_rates", [
    (2, 0.01 + 0.005 * np.arange(0, 149, 4)),  # every 4th point of the sweep grid
    (3, [0.05, 0.2, 0.3, 0.5, 0.62, 0.75]),  # Xi + Xi' is indefinite at 0.62
], ids=["T2-sweep-grid", "T3"])
def test_maximize_L_is_globally_optimal_on_uniform(T, gb_rates):
    gs = make_geometric_discount(0.8, T)
    for spec, gb_rate in product(["uniform:0,1", "uniform:2,3", "uniform:0.5,1"], gb_rates):
        dist, gb = parse_distribution(spec), make_geometric_discount(gb_rate, T)
        _, exact = uniform_face_optimum(build_system(gb, gs).Xi, dist)
        result = maximize_L(dist, gb, gs)
        assert result.value == pytest.approx(exact, rel=1e-12), (spec, gb_rate)
        assert result.converged, (spec, gb_rate)


def test_maximize_L_reaches_the_exact_uniform_edge_optima():
    for spec, T, gb_rate, exact in UNIFORM_EDGE_OPTIMA:
        gb, gs = make_geometric_discount(gb_rate, T), make_geometric_discount(0.8, T)
        result = maximize_L(parse_distribution(spec), gb, gs)
        assert result.value == pytest.approx(exact, rel=1e-12), (spec, T, gb_rate)
        assert result.converged, (spec, T, gb_rate)


def test_maximize_L_certifies_the_T2_optimum_on_the_support_edge():
    dist = parse_distribution("uniform:2,3")
    gb, gs = make_geometric_discount(0.3, 2), make_geometric_discount(0.8, 2)
    result = maximize_L(dist, gb, gs)
    assert result.converged
    assert result.value == pytest.approx(3.6, rel=1e-12)
    revenue = expected_strategic_revenue(result.tree, dist, gb, gs)
    assert revenue == pytest.approx(result.value, rel=1e-12)


@pytest.mark.parametrize("lo, hi, T", [(0, 1, 2), (0, 1, 3), (1, 3, 3), (2, 3, 4)])
def test_scaling_the_support_scales_the_solve(lo, hi, T):
    # L is homogeneous of degree 1 in the valuation, and the ascent steps in
    # support widths, so a power-of-two scale runs the same arithmetic; at
    # 2^+-900 the squares of a step's entries leave the float range
    gb, gs = make_geometric_discount(0.3, T), make_geometric_discount(0.8, T)
    base = maximize_L(Uniform(lo, hi), gb, gs)
    for H in (2.0 ** -900, 2.0 ** -40, 2.0 ** -20, 2.0 ** 20, 2.0 ** 56, 2.0 ** 900):
        result = maximize_L(Uniform(lo * H, hi * H), gb, gs)
        assert result.value == H * base.value, H
        assert np.array_equal(result.v_star, H * base.v_star), H
        assert (result.iterations, result.converged) == (base.iterations, base.converged), H
    for H in (1e-300, 1e-13, 1e17, 1e300):
        result = maximize_L(Uniform(lo * H, hi * H), gb, gs)
        assert result.value == pytest.approx(H * base.value, rel=1e-12), H
        assert result.converged, H


@pytest.mark.parametrize("spec, T", [("uniform:0,1", 2), ("uniform:0,1", 3), ("uniform:2,3", 3),
                                     ("beta:4,2", 3), ("beta:0.5,0.5", 3)])
def test_scaling_a_discount_scales_the_solve(spec, T):
    # revenue is sum_t gs_t p_t, so scaling the seller's weights by c scales the
    # optimum by c and leaves its tree alone, and scaling the buyer's moves no
    # best response; the solve runs in the seller's first-round units, so a
    # power-of-two scale of either side runs the same arithmetic
    dist = parse_distribution(spec)
    gb, gs = make_geometric_discount(0.3, T), make_geometric_discount(0.8, T)
    base = maximize_L(dist, gb, gs)
    assert base.converged
    scaled = lambda d, c: DiscountSequence([c * w for w in d.weights])
    solves = [(c, maximize_L(dist, gb, scaled(gs, c))) for c in (2.0 ** -40, 2.0 ** 30)]
    solves += [(1.0, maximize_L(dist, scaled(gb, c), gs)) for c in (2.0 ** -40, 2.0 ** 20)]
    for i, (unit, result) in enumerate(solves):
        assert result.value == unit * base.value, i
        assert np.array_equal(result.v_star, base.v_star), i
        assert (result.iterations, result.converged) == (base.iterations, True), i


def test_no_move_below_the_floor_raises_L_on_a_game():
    # the floor's premise: below lo, L is linear, and raising any top run
    # of those values together never lowers it (every suffix sum of the
    # gradient over them is >= 0); see `maximize_bilinear`
    rng = np.random.default_rng(17)
    for _ in range(150):
        T = int(rng.integers(2, 5))
        gs_rate = rng.uniform(0.3, 0.95)
        gb = make_geometric_discount(rng.uniform(0.05, gs_rate), T)
        Xi = build_system(gb, make_geometric_discount(gs_rate, T)).Xi
        lo = rng.uniform(0.1, 2.0)
        dist = Uniform(lo, lo + rng.uniform(0.1, 2.0))
        for _ in range(10):
            m = int(rng.integers(1, len(Xi) + 1))  # values below lo
            v = np.sort(np.concatenate((rng.uniform(0.0, lo, m),
                                        rng.uniform(lo, dist.hi * 1.2, len(Xi) - m))))
            suffix_sums = np.cumsum(L_gradient(Xi, dist, v)[:m][::-1])
            assert suffix_sums.min() >= -1e-12


def test_the_floor_premise_fails_off_a_game_kernel():
    # negative control: raising v_1 toward lo lowers L, and the exact
    # reference still searches below lo and finds the optimum there
    matrix, dist = np.array([[-1.0, 0.0], [0.0, 1.0]]), Uniform(1, 2)
    assert L_gradient(matrix, dist, np.array([0.5, 1.5]))[0] < 0
    v, _ = uniform_face_optimum(matrix, dist)
    assert v[0] == 0.0


def test_projection_input_validation():
    with pytest.raises(InvalidParameterError):
        project_to_delta(np.zeros((2, 2)), 0.0)


def test_projection_matches_general_qp_solver():
    # independent oracle: solve the projection QP with SLSQP and compare
    from scipy.optimize import minimize
    rng = np.random.default_rng(31)
    for lo, _ in product([0.0, 0.7], range(10)):
        k = int(rng.integers(2, 7))
        x = rng.normal(0.0, 2.0, k)
        proj = project_to_delta(x, lo)
        constraints = [{"type": "ineq", "fun": lambda v, i=i: v[i + 1] - v[i]}
                       for i in range(k - 1)]
        constraints.append({"type": "ineq", "fun": lambda v: v[0] - lo})
        ref = minimize(lambda v: 0.5 * np.sum((v - x) ** 2),
                       np.maximum(np.sort(x), lo), constraints=constraints,
                       method="SLSQP")
        assert ref.success
        assert proj == pytest.approx(ref.x, abs=1e-6)


@pytest.mark.parametrize("max_iter", [1, 3, 5])
def test_kkt_residual_is_measured_at_the_returned_point(monkeypatch, max_iter):
    # a run cut off by MAX_ITER reports the gradient mapping at v_star, not
    # at the iterate before its last move
    monkeypatch.setattr(optimizer, "MAX_ITER", max_iter)
    dist = Beta(4, 2)
    gb = make_geometric_discount(0.3, 3)
    gs = make_geometric_discount(0.8, 3)
    result = maximize_L(dist, gb, gs, starts=1)
    Xi = build_system(gb, gs).Xi
    lo, hi = dist.support
    step0 = (hi - lo) / max(np.linalg.norm(Xi, 1), 1e-12)
    _, kkt = _gradient_mapping(result.v_star, L_gradient(Xi, dist, result.v_star), step0, lo)
    assert result.kkt_residual == pytest.approx(kkt, rel=1e-12)
