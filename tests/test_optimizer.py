from itertools import product

import numpy as np
import pytest
from scipy.optimize import isotonic_regression

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
    v, value, iters, ok, kkt, runs = maximize_bilinear(matrix, u, starts=6, seed=0)
    # the run must end at least as high as the best starting value it saw
    start_value = L_value(matrix, u, np.full(2, 0.5))
    assert value >= start_value - 1e-12
    assert iters >= 1 and runs == 6


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


@pytest.mark.parametrize("spec, horizon, reason", [
    ("uniform:1e308,1.7e308", "tau", "not finite at start 0"),
    ("uniform:0,1.7e308", "tau", "not finite at start 0"),
    # M v is finite at the constant start p* = 8.5e307 as drawn (PAVA would
    # have pooled it through a sum that overflows), so the step is refused
    ("uniform:0,1.7e308", "T", "the support is too wide for the ascent"),
], ids=["uniform:1e308,1.7e308", "uniform:0,1.7e308", "uniform:0,1.7e308-T2"])
def test_a_form_that_is_not_finite_at_a_start_is_refused(monkeypatch, spec, horizon, reason):
    # refused with no projection (a start is taken as drawn) and no RuntimeWarning
    project, calls = optimizer.project_to_delta, []

    def counted(x, lo):
        calls.append(None)
        return project(x, lo)

    monkeypatch.setattr(optimizer, "project_to_delta", counted)
    if horizon == "tau":
        game = truncate(0.3, 0.8, 2)
        buyer, seller = game.buyer, game.seller
    else:
        buyer, seller = make_geometric_discount(0.3, 2), make_geometric_discount(0.8, 2)
    with pytest.raises(InvalidParameterError, match=reason):
        maximize_L(parse_distribution(spec), buyer, seller, starts=2)
    assert len(calls) == 0


def test_a_non_finite_later_run_refuses_the_solve(monkeypatch):
    # the finite runs would understate an optimum that overflows
    matrix, u = reduced_T2_functional(0.8, 0.2), Uniform(0, 1)
    ascent, calls = optimizer._projected_ascent, []

    def second_run_nan(*args):
        x, f, it, kkt = ascent(*args)
        calls.append(None)
        return x, (np.nan if len(calls) == 2 else f), it, kkt

    monkeypatch.setattr(optimizer, "_projected_ascent", second_run_nan)
    with pytest.raises(InvalidParameterError, match="not finite at start 1"):
        maximize_bilinear(matrix, u, starts=6)


def test_the_line_search_reuses_the_projected_reference_step(monkeypatch):
    # a trial at the reference step takes the gradient mapping's point, so
    # it is not projected twice, and a start is not projected at all; the
    # solve itself does not move
    project, calls = optimizer.project_to_delta, []

    def counted(x, lo):
        calls.append(None)
        return project(x, lo)

    monkeypatch.setattr(optimizer, "project_to_delta", counted)
    result = maximize_L(Uniform(0, 1), make_geometric_discount(0.3, 2),
                        make_geometric_discount(0.8, 2))
    assert (len(calls), result.iterations) == (152, 92)
    assert result.value == 0.47472527472527476


# a point of the T = 2 cone drawn uniformly over [0, 1] (row 6 of seed 0's
# sorted (14, 3) draw), whose upper two values lie where texp:50,1's survival
# 1 - F is below e^-14; an ascent from it ends at the stall rule after 258 iterations
TEXP_STALL_START = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, size=(14, 3)), axis=1)[6]


def test_each_ascent_point_has_its_cdf_taken_once(monkeypatch):
    # the survival 1 - F(v) and M v of the point a line search accepts feed
    # the next iteration's gradient, and a run that stalls keeps the
    # certificate of its last top (texp's warm start stalls); the solve
    # itself does not move
    for spec, warm, counts, value in [
            ("uniform:0,1", None, (102, 92), 0.47472527472527476),
            ("texp:50,1", TEXP_STALL_START, (778, 291), 0.014315825984780027)]:
        dist = parse_distribution(spec)
        cdf, calls = type(dist).cdf, []

        def counted(self, v, cdf=cdf, calls=calls):
            calls.append(None)
            return cdf(self, v)

        monkeypatch.setattr(type(dist), "cdf", counted)
        result = maximize_L(dist, make_geometric_discount(0.3, 2),
                            make_geometric_discount(0.8, 2), warm=warm)
        assert (len(calls), result.iterations) == counts, spec
        assert result.value == value, spec


def test_the_default_start_list_is_a_prefix_of_the_old_budget_list():
    # all rows come from one seeded stream, so the default max(16, k) points are
    # the first points of the old max(16, 4k) list, and starts=max(16, 4 * k)
    # reruns the old search exactly (the start corpus rests on this)
    dist, k = Beta(4, 2), 63
    p_star, _ = myerson_price(dist)
    count = optimizer._start_count(None, k)
    default = list(optimizer._start_points(dist, k, count, p_star, 0))
    old = list(optimizer._start_points(dist, k, 4 * k, p_star, 0))
    assert (len(default), len(old)) == (count, 4 * k)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(default, old[:count]))


def test_a_single_start_misses_where_the_default_list_does_not():
    # a start-corpus miss kept as a regression case: texp:50,1 at tau 4,
    # gs .95, gb .538, where the constant start alone stalls 4.2% short
    game, dist = truncate(0.538, 0.95, 4), parse_distribution("texp:50,1")
    single = maximize_L(dist, game.buyer, game.seller, starts=1)
    assert (single.value, single.converged) == (0.2622879806416544, False)
    result = maximize_L(dist, game.buyer, game.seller)
    assert (result.value, result.converged, result.starts) == (0.2738447675301921, True, 16)


def test_a_warm_start_runs_a_prefix_of_the_full_start_list(monkeypatch):
    # the warm start, then the first 2 + WARM_RANDOM_STARTS points of the
    # cold solve's list (the same seeded draw), or of an explicit --starts cap
    ascent, starts = optimizer._projected_ascent, []

    def recorded(matrix, dist, x0, step0, lo):
        starts.append(x0)
        return ascent(matrix, dist, x0, step0, lo)

    monkeypatch.setattr(optimizer, "_projected_ascent", recorded)
    dist, gb, gs = Beta(4, 2), make_geometric_discount(0.3, 3), make_geometric_discount(0.8, 3)
    cold = maximize_L(dist, gb, gs, seed=3)
    cold_starts, starts[:] = starts[:], []
    warm = maximize_L(dist, gb, gs, seed=3, warm=cold.v_star)
    reduced = 2 + optimizer.WARM_RANDOM_STARTS
    assert (cold.starts, warm.starts, len(starts)) == (16, 1 + reduced, 1 + reduced)
    assert starts[0] is not cold.v_star and np.array_equal(starts[0], cold.v_star)
    assert all(np.array_equal(a, b) for a, b in zip(starts[1:], cold_starts[:reduced]))
    assert warm.converged and warm.value >= cold.value * (1 - 1e-12)
    starts[:] = []
    assert maximize_L(dist, gb, gs, starts=2, warm=cold.v_star).starts == len(starts) == 3


def test_a_warm_start_falls_back_to_the_full_start_list():
    # beta:1e-9,1e-9 at T = 2 ends uncertified, so after the reduced list the
    # rest of the full list runs too: the warm start and all 16 starts
    dist = parse_distribution("beta:1e-9,1e-9")
    gb, gs = make_geometric_discount(0.3, 2), make_geometric_discount(0.8, 2)
    cold = maximize_L(dist, gb, gs)
    warm = maximize_L(dist, gb, gs, warm=np.full(3, 0.5))
    assert (cold.converged, warm.converged) == (False, False)
    assert (cold.starts, warm.starts) == (16, 16 + 1)
    assert warm.value >= cold.value


@pytest.mark.parametrize("warm", [[0.5, 0.5], [0.6, 0.5, 0.7], [-0.1, 0.5, 0.7],
                                  [0.1, np.nan, 0.7], [[0.1, 0.2, 0.3]]],
                         ids=["length", "unsorted", "below-lo", "nan", "matrix"])
def test_a_warm_start_off_the_cone_is_refused(warm):
    gb, gs = make_geometric_discount(0.3, 2), make_geometric_discount(0.8, 2)
    with pytest.raises(InvalidParameterError, match="warm start"):
        maximize_L(Uniform(0, 1), gb, gs, warm=warm)


# five solves as the ascent with the spectral first trial step makes them from
# random starts drawn as quantiles (`uniform:2,3` as recorded at `9c8d47b`),
# which a change to the ascent's arithmetic or to a non-uniform start moves:
# (v_star bytes, value, iterations, converged, kkt_residual)
PINNED_SOLVES = {
    ("uniform:0,1", "T2"): (
        "567335577335d73ff21eeff11eefe13ff21eeff11eefe13f",
        0.47472527472527476, 92, True, 1.4432899320127036e-16),
    ("uniform:2,3", "T2"): (
        "000000000000004000000000000000400000000000000040",
        3.6000000000000005, 31, True, 0.0),
    ("beta:4,2", "T3"): (
        "89ad67493eebd73fc6c0441975b2dd3fc6c0441975b2dd3fd58e6bb26f5ce33f"
        "d58e6bb26f5ce33fd58e6bb26f5ce33fd58e6bb26f5ce33f",
        1.072397474066283, 145, True, 2.642330798607874e-16),
    ("texp:50,1", "T2"): (
        "9509935570788a3fbe40f15549e4983fbe40f15549e4983f",
        0.014315825984780029, 148, True, 1.6688039838896885e-16),
    ("uniform:0,1", "tau4"): (
        "2e7f4903f927bf3fbdc6256adf8ecd3fbdc6256adf8ecd3f9ea2729b0c4dd63f"
        "9ea2729b0c4dd63fec2f7aa7ce37db3fec2f7aa7ce37db3f5ccdf16edd3be23f"
        "5ccdf16edd3be23fe14e784c3a72e23fe14e784c3a72e23f2aed501a26f8e53f"
        "2aed501a26f8e53f2550630a0face83f2550630a0face83f",
        1.745609147243134, 132, True, 2.456584831855006e-16),
}


def game(depth: str, gb: float, gs: float):
    """The (buyer, seller) discounts of "T<n>" (geometric) or "tau<n>" (`truncate`)."""
    if depth.startswith("tau"):
        truncated = truncate(gb, gs, int(depth.removeprefix("tau")))
        return truncated.buyer, truncated.seller
    n = int(depth.removeprefix("T"))
    return make_geometric_discount(gb, n), make_geometric_discount(gs, n)


@pytest.mark.parametrize("spec, depth", list(PINNED_SOLVES))
def test_pinned_solves_hold_to_the_byte(spec, depth):
    # gb .3 and gs .8 (the tau game: truncate(0.2, 0.8, 4)), default starts and seed
    buyer, seller = game(depth, 0.2 if depth.startswith("tau") else 0.3, 0.8)
    result = maximize_L(parse_distribution(spec), buyer, seller)
    v_hex, value, iterations, converged, kkt = PINNED_SOLVES[spec, depth]
    assert result.v_star.tobytes().hex() == v_hex
    assert (result.value, result.iterations, result.converged, result.kkt_residual) == (
        value, iterations, converged, kkt)


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


@pytest.mark.parametrize("max_iter", [6, None])
def test_an_arc_move_never_lowers_a_run_and_counts_toward_max_iter(monkeypatch, max_iter):
    # Beta(4, 2) at T = 3 (gb .3, gs .8, seed 0): start 5 of the 16 leaves
    # the cone on a face-Newton step and moves along the projection arc
    # instead, at its sixth iteration, so cut there it returns the arc's
    # point, with no gradient step after it
    if max_iter is not None:
        monkeypatch.setattr(optimizer, "MAX_ITER", max_iter)
    newton, search, ascent, runs = optimizer._face_newton, optimizer._armijo_search, \
        optimizer._projected_ascent, []

    def recorded_newton(*args):  # args[5] is the run's value where Newton is tried
        runs[-1]["values"].append(args[5])
        out = newton(*args)
        runs[-1]["arc"] = out[2] is not None  # a leave: the next search follows the arc
        return out

    def recorded_search(*args):
        out = search(*args)
        if runs[-1].pop("arc", False) and out is not None:
            runs[-1]["moves"].append((runs[-1]["values"][-1], out))
        return out

    def recorded(*args):
        runs.append({"values": [], "moves": []})
        runs[-1]["out"] = ascent(*args)
        return runs[-1]["out"]

    monkeypatch.setattr(optimizer, "_face_newton", recorded_newton)
    monkeypatch.setattr(optimizer, "_armijo_search", recorded_search)
    monkeypatch.setattr(optimizer, "_projected_ascent", recorded)
    gb, gs = make_geometric_discount(0.3, 3), make_geometric_discount(0.8, 3)
    result = maximize_L(Beta(4, 2), gb, gs)
    moved = [i for i, run in enumerate(runs) if run["moves"]]
    assert moved == [5]
    for i in moved:
        for value, (_, terms, _) in runs[i]["moves"]:
            assert terms[0] >= value  # the arc's point is worth at least the run's value
    x, f, iterations, _ = runs[5]["out"]
    if max_iter is None:
        assert result.converged
    else:
        (_, (point, terms, _)), = runs[5]["moves"]
        assert iterations == max_iter and np.array_equal(x, point) and f == terms[0]
        assert all(run["out"][2] <= max_iter for run in runs)


def test_the_armijo_search_returns_the_first_passing_step_or_none(monkeypatch):
    # one search serves the gradient step and the Newton arc: it halves t
    # from its first trial, and a first passing point that does not move
    # ends it with None, which sends a run to its fixed-step fallback
    terms_of, calls = optimizer.revenue_terms, []

    def counted(matrix, dist, v):
        calls.append(None)
        return terms_of(matrix, dist, v)

    monkeypatch.setattr(optimizer, "revenue_terms", counted)
    matrix, u, x = reduced_T2_functional(0.8, 0.2), Uniform(0, 1), np.array([0.2, 0.4])
    g, f = L_gradient(matrix, u, x), L_value(matrix, u, x)
    tried = []

    def along_g(t):
        tried.append(t)
        return project_to_delta(x + t * g, 0.0)

    assert optimizer._armijo_search(matrix, u, x, f, g, along_g, 0.5, 1.0) is None
    assert (tried, calls) == ([], [])
    assert optimizer._armijo_search(matrix, u, x, f, g, lambda t: x.copy(), 1.0, 1e-6) is None
    assert len(calls) == 1  # x itself passes, so no shorter step is tried
    calls.clear()
    x_new, terms, t = optimizer._armijo_search(matrix, u, x, f, g, along_g, 4.0, 1e-6)
    assert (tried, t, len(calls)) == ([4.0, 2.0, 1.0, 0.5], 0.5, 4)
    assert np.array_equal(x_new, project_to_delta(x + 0.5 * g, 0.0))
    assert terms[0] == L_value(matrix, u, x_new) > f


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
        v_pg, value_pg, *_ = maximize_bilinear(matrix, u, starts=8, seed=2)
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


@pytest.mark.parametrize("T, bound", [(2, "1e4"), (2, "1e10"), (2, "3e10"), (2, "1e12"),
                                      (2, "1e13"), (2, "1e17"), (3, "1e12")])
def test_a_thin_mass_support_steps_in_the_mass_reach(T, bound):
    # texp:0.5,W has its 1 - 1e-12 quantile at 55.3 whatever the bound W, so
    # the optimum does not move with W.  Steps in support widths certified it
    # up to 0.78% short at T = 2 (10.9% at T = 3, W = 1e12) and left W = 1e17
    # uncertified
    gb, gs = make_geometric_discount(0.3, T), make_geometric_discount(0.8, T)
    reference = maximize_L(parse_distribution("texp:0.5,1e4"), gb, gs)
    result = maximize_L(parse_distribution(f"texp:0.5,{bound}"), gb, gs)
    assert reference.converged and result.converged
    assert result.value == pytest.approx(reference.value, rel=1e-12)


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


def test_projection_is_the_clamped_isotonic_regression_byte_for_byte():
    # project_to_delta calls SciPy's private PAVA kernel directly; a SciPy
    # that moves or changes it fails here.  Constant vectors and runs of
    # ties are where pooling rounds a mean off its values by an ulp.
    rng = np.random.default_rng(41)
    for k, i in product((3, 7, 63), range(2000)):
        kind = i % 4
        if kind == 0:
            x = rng.normal(0.5, 1.0, k)
        elif kind == 1:
            x = np.full(k, rng.uniform())
        elif kind == 2:
            x = rng.choice(rng.uniform(size=3), k)  # runs of ties, out of order
        else:
            x = np.sort(rng.choice(rng.uniform(size=3), k))  # runs of ties, in order
        for lo in (0.0, 0.5):
            expected = np.maximum(isotonic_regression(x).x, lo)
            assert project_to_delta(x, lo).tobytes() == expected.tobytes(), (k, i, lo)
    for bad in (np.zeros((2, 2)), np.zeros((3, 1)), [], np.zeros(0)):
        with pytest.raises(InvalidParameterError):
            project_to_delta(bad, 0.0)


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


@pytest.mark.parametrize("max_iter", [1, 3, 5, pytest.param(None, id="texp:50,1-T2")])
def test_kkt_residual_is_measured_at_the_returned_point(monkeypatch, max_iter):
    # every run returns the gradient mapping at the point it returns: a run
    # cut off by MAX_ITER (Beta(4, 2), T = 3, one start) not at the iterate
    # before its last move, and a stalled run (texp:50,1 at T = 2 from its
    # warm start, which runs to its end) at the point it stalled on;
    # `converged` is that test
    if max_iter is None:
        dist, depth, starts, warm = parse_distribution("texp:50,1"), 2, None, TEXP_STALL_START
    else:
        monkeypatch.setattr(optimizer, "MAX_ITER", max_iter)
        dist, depth, starts, warm = Beta(4, 2), 3, 1, None
    gb = make_geometric_discount(0.3, depth)
    gs = make_geometric_discount(0.8, depth)
    Xi = build_system(gb, gs).Xi
    lo, hi = dist.support
    step0 = (hi - lo) / max(np.linalg.norm(Xi, 1), 1e-12)
    ascent, runs = optimizer._projected_ascent, []

    def recorded(*args):
        x, f, it, kkt = ascent(*args)
        runs.append((x, kkt))
        return x, f, it, kkt

    monkeypatch.setattr(optimizer, "_projected_ascent", recorded)
    result = maximize_L(dist, gb, gs, starts=starts, warm=warm)
    assert len(runs) == result.starts
    for x, kkt in runs:  # the ascent runs on Xi / gs_1 = Xi: gs_1 is 1
        assert kkt == _gradient_mapping(x, L_gradient(Xi, dist, x), step0, lo)[1]
    _, kkt = _gradient_mapping(result.v_star, L_gradient(Xi, dist, result.v_star), step0, lo)
    assert result.kkt_residual == pytest.approx(kkt, rel=1e-12)
    assert result.converged == (result.kkt_residual <= optimizer.KKT_TOL)


def test_a_run_that_ends_below_its_best_iterate_returns_the_best(monkeypatch):
    # texp:100,1 at T = 3 (gb .3, gs .8): from a start drawn uniformly over
    # [0, 1] (row 14 of seed 0's sorted (26, 7) draw), where the survival
    # 1 - F is below 1e-10 at every value, the ascent stalls after 253 iterations at
    # 1.21928739515138e-11, below its best iterate 1.2192874270930129e-11,
    # and returns that iterate with its own certificate
    dist = parse_distribution("texp:100,1")
    Xi = build_system(make_geometric_discount(0.3, 3), make_geometric_discount(0.8, 3)).Xi
    ascent, terms, args, values = optimizer._projected_ascent, optimizer.revenue_terms, [], []

    def recorded(*a):
        args.append(a)
        return ascent(*a)

    def recorded_terms(*a):  # every value the run forms, trial points included
        out = terms(*a)
        values.append(out[0])
        return out

    monkeypatch.setattr(optimizer, "_projected_ascent", recorded)
    maximize_bilinear(Xi, dist, starts=1)  # gs_1 is 1: the kernel is Xi
    matrix, _, _, step0, lo = args[0]  # the solve's reference step and floor
    x0 = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, size=(26, 7)), axis=1)[14]
    monkeypatch.setattr(optimizer, "revenue_terms", recorded_terms)
    x, f, iterations, kkt = ascent(matrix, dist, x0, step0, lo)
    assert iterations == 253
    assert values[-1] == 1.21928739515138e-11  # the last iterate's value
    assert f == max(values) == 1.2192874270930129e-11
    assert kkt == _gradient_mapping(x, L_gradient(matrix, dist, x), step0, lo)[1]
