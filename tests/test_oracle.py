import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from postedprice import (Beta, DiscountSequence, GameOutcome, InvalidParameterError,
                         PricingTree, ResourceLimitError, TruncatedExponential, Uniform,
                         best_response, big_deal, brute_force_optimal_tree, canonical_nodes,
                         evaluate, expected_strategic_revenue,
                         L_value, build_system, make_geometric_discount, maximize_L,
                         order_strategies, parse_distribution,
                         strategic_revenue_curve, uniform_face_optimum, v_to_tree)
from postedprice import oracle
from postedprice.core import _finite_weights, _payment_matrix
from postedprice.oracle import strategy_bits, strategy_tables, envelope_breakpoints
from exact_kernel import exact_expected_revenue


def random_tree(rng, horizon, hi=1.5):
    prices = dict(zip(canonical_nodes(horizon), rng.uniform(0.0, hi, 2**horizon - 1)))
    return PricingTree(horizon, prices)


# ---------------------------------------------------------------------------
# best responses


def test_truthful_against_constant_pricing():
    d = DiscountSequence([1.0, 0.5])
    tree = PricingTree.constant(2, 0.5)
    br = best_response(tree, 0.8, d, d)
    assert str(br.strategy) == "11"
    assert br.surplus == pytest.approx(0.45)
    assert br.revenue == pytest.approx(0.75)
    br = best_response(tree, 0.3, d, d)
    assert str(br.strategy) == "00"
    assert br.surplus == 0.0 and br.revenue == 0.0


def test_pay_up_front_tree_threshold_behavior():
    # three-round pay-up-front pricing: first price is the whole discounted
    # value 1.75 * 0.5, later rounds free after acceptance, punitive after
    # rejection; the buyer accepts exactly when v exceeds 0.5
    gb = DiscountSequence([1.0, 0.5, 0.25])
    tree, _ = big_deal(Uniform(0, 1), gb, gb)
    assert tree.price("") == pytest.approx(0.875, abs=1e-6)
    br = best_response(tree, 0.6, gb, gb)
    assert str(br.strategy) == "111"
    assert br.revenue == pytest.approx(0.875, abs=1e-6)
    assert str(best_response(tree, 0.4, gb, gb).strategy) == "000"


def test_enumeration_guard_and_negative_valuation():
    with pytest.raises(ResourceLimitError):
        strategy_bits(21)
    d = DiscountSequence([1.0, 0.5])
    with pytest.raises(InvalidParameterError):
        best_response(PricingTree.constant(2, 0.5), -0.2, d, d)


@pytest.mark.parametrize("v", ["0.5", True, None])
def test_a_valuation_that_is_not_a_real_number_is_refused(v):
    tree = PricingTree.constant(2, 0.5)
    d = DiscountSequence([1.0, 0.5])
    with pytest.raises(InvalidParameterError,
                       match="valuation must be finite and non-negative, got"):
        evaluate(tree, "11", v, d, d)
    with pytest.raises(InvalidParameterError,
                       match="valuation must be finite and non-negative, got"):
        best_response(tree, v, d, d)


def test_a_best_response_is_a_game_outcome_plus_its_tie_count():
    d = DiscountSequence([1.0, 0.5])
    tree = PricingTree.constant(2, 0.5)
    br = best_response(tree, 0.8, d, d)
    assert isinstance(br, GameOutcome)
    assert [f.name for f in dataclasses.fields(br)] == [
        "strategy", "surplus", "revenue", "quantity", "tie_count"]
    assert repr(br).startswith("BestResponse(strategy='11', surplus=")
    assert repr(br).endswith(", tie_count=1)")
    out = evaluate(tree, br.strategy, 0.8, d, d)
    assert (br.surplus, br.revenue, br.quantity) == pytest.approx(
        (out.surplus, out.revenue, out.quantity), abs=1e-12)


@pytest.mark.parametrize("v", [math.nan, float("inf")])
def test_non_finite_valuation_is_refused(v):
    # a NaN compares false with every surplus, so it used to answer '00'
    tree = PricingTree.constant(2, 0.5)
    d = DiscountSequence([1.0, 0.5])
    with pytest.raises(InvalidParameterError):
        evaluate(tree, "11", v, d, d)
    with pytest.raises(InvalidParameterError):
        best_response(tree, v, d, d)
    with pytest.raises(InvalidParameterError):
        strategic_revenue_curve(tree, d, d, [0.0, 0.5, v])


def test_best_response_beats_random_strategies():
    rng = np.random.default_rng(11)
    gb = make_geometric_discount(0.6, 4)
    gs = make_geometric_discount(0.8, 4)
    tree = random_tree(rng, 4)
    for v in (0.1, 0.55, 1.3):
        br = best_response(tree, v, gb, gs)
        for _ in range(64):
            s = "".join(str(b) for b in rng.integers(0, 2, 4))
            assert br.surplus >= evaluate(tree, s, v, gb, gs).surplus - 1e-12


def test_seller_optimistic_tie_break():
    # two strategies give identical surplus at the crossing valuation; the
    # buyer is assumed to pick the seller-preferred one
    d = DiscountSequence([1.0, 1.0])
    tree = PricingTree(2, {"": 0.5, "0": 0.5, "1": 0.5})
    br = best_response(tree, 0.5, d, d)
    assert br.tie_count == 4  # 00, 01, 10, 11 all give zero surplus
    assert br.revenue == pytest.approx(1.0)  # accepts everything


# ---------------------------------------------------------------------------
# revenue curves


def test_curve_constant_tree():
    gs = DiscountSequence([1.0, 0.5])
    tree = PricingTree.constant(2, 0.5)
    curve = strategic_revenue_curve(tree, gs, gs, [0.25, 0.75])
    assert curve.revenue == pytest.approx([0.0, 0.5 * gs.total])


def test_curve_starts_at_zero():
    rng = np.random.default_rng(5)
    g = make_geometric_discount(0.7, 3)
    tree = random_tree(rng, 3)
    curve = strategic_revenue_curve(tree, g, g, [0.0])
    assert curve.revenue[0] == 0.0 and curve.surplus[0] == 0.0


def test_curve_revenue_non_decreasing_random_trees():
    rng = np.random.default_rng(6)
    gb = make_geometric_discount(0.5, 3)
    gs = make_geometric_discount(0.9, 3)
    grid = np.linspace(0.0, 2.0, 200)
    for _ in range(5):
        curve = strategic_revenue_curve(random_tree(rng, 3), gb, gs, grid)
        assert np.all(np.diff(curve.revenue) >= -1e-9)


def test_curve_rejects_bad_grid():
    g = DiscountSequence([1.0, 0.5])
    tree = PricingTree.constant(2, 0.5)
    with pytest.raises(InvalidParameterError):
        strategic_revenue_curve(tree, g, g, [0.5, 0.25])
    with pytest.raises(InvalidParameterError):
        strategic_revenue_curve(tree, g, g, [-0.5, 0.25])


@pytest.mark.parametrize("grid", [[], [[0.25, 0.5]]], ids=["empty", "2-d"])
def test_curve_needs_a_non_empty_1d_grid(grid):
    g = DiscountSequence([1.0, 0.5])
    with pytest.raises(InvalidParameterError, match="non-empty 1-d array"):
        strategic_revenue_curve(PricingTree.constant(2, 0.5), g, g, grid)


# ---------------------------------------------------------------------------
# expected revenue


def test_curve_is_the_same_in_blocks(monkeypatch):
    rng = np.random.default_rng(12)
    tree = random_tree(rng, 4)
    gb, gs = make_geometric_discount(0.3, 4), make_geometric_discount(0.8, 4)
    grid = np.linspace(0.0, 1.5, 101)
    whole = strategic_revenue_curve(tree, gb, gs, grid)
    monkeypatch.setattr(oracle, "ARGBEST_BLOCK_CELLS", 16 * 7)  # 7 valuations a block
    blocked = strategic_revenue_curve(tree, gb, gs, grid)
    assert blocked.strategies == whole.strategies
    assert np.array_equal(blocked.surplus, whole.surplus)
    assert np.array_equal(blocked.revenue, whole.revenue)


def test_curve_memory_does_not_scale_with_strategies_times_grid():
    # one 2^16 x 201 surplus matrix alone would take 100 MiB
    rng = np.random.default_rng(16)
    tree = random_tree(rng, 16)
    gb, gs = make_geometric_discount(0.3, 16), make_geometric_discount(0.8, 16)
    tracemalloc.start()
    try:
        curve = strategic_revenue_curve(tree, gb, gs, np.linspace(0.0, 1.5, 201))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve.valuations) == 201
    assert peak < 64 * 2**20


def test_strategy_tables_form_the_paid_prices_once():
    # each (2^16, 16) float or index matrix takes 8 MiB
    rng = np.random.default_rng(16)
    tree = random_tree(rng, 16)
    gb, gs = make_geometric_discount(0.3, 16), make_geometric_discount(0.8, 16)
    tracemalloc.start()
    try:
        tables = strategy_tables(tree, gb, gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables.quantities) == 2**16
    assert peak < 20 * 2**20


def test_every_strategy_label_agrees():
    # row j of strategy_bits(T) is the strategy format(j, f"0{T}b") everywhere
    rng = np.random.default_rng(33)
    tree = random_tree(rng, 3)
    gb, gs = make_geometric_discount(0.3, 3), make_geometric_discount(0.8, 3)
    grid = np.linspace(0.0, 1.5, 201)
    curve = strategic_revenue_curve(tree, gb, gs, grid)
    for v, label, revenue in zip(grid, curve.strategies, curve.revenue):
        assert best_response(tree, float(v), gb, gs).strategy == label
        assert evaluate(tree, label, float(v), gb, gs).revenue == pytest.approx(
            revenue, rel=0.0, abs=1e-12)
    buyer = make_geometric_discount(0.7, 3)
    order = order_strategies(buyer)
    by_quantity = np.argsort(strategy_bits(3) @ buyer.as_array())
    assert order.strategies == tuple(format(j, "03b") for j in by_quantity)


def test_expected_revenue_constant_myerson_price():
    u = Uniform(0, 1)
    for gs_rate in (0.3, 0.8):
        gs = make_geometric_discount(gs_rate, 2)
        gb = make_geometric_discount(0.5, 2)
        tree = PricingTree.constant(2, 0.5)
        value = expected_strategic_revenue(tree, u, gb, gs)
        assert value == pytest.approx(gs.total * 0.25, abs=1e-12)


def test_expected_revenue_exact_under_a_singular_density():
    # Beta(0.5, 0.5) has infinite density at both ends of the support; the
    # oracle must still reproduce the revenue form at the T = 3 optimum
    b = Beta(0.5, 0.5)
    gb = make_geometric_discount(0.3, 3)
    gs = make_geometric_discount(0.8, 3)
    result = maximize_L(b, gb, gs)
    assert expected_strategic_revenue(result.tree, b, gb, gs) == pytest.approx(
        result.value, abs=1e-12)


def _scaled(tree, H):
    return PricingTree(tree.horizon, {node: H * p for node, p in tree.prices().items()})


@pytest.mark.parametrize("family", [lambda H: Uniform(0.0, H),
                                    lambda H: TruncatedExponential(50.0 / H, H)],
                         ids=["uniform", "texp"])
def test_scaling_prices_and_support_scales_the_oracle(family):
    # surpluses, payments and ties are all degree 1 in the valuation unit, so
    # a power-of-two scale of the tree and the support changes no decision
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 1.0, 201)
    for T in (2, 3, 4):
        gb, gs = make_geometric_discount(0.3, T), make_geometric_discount(0.8, T)
        for _ in range(5):
            tree = random_tree(rng, T, hi=1.0)
            revenue = expected_strategic_revenue(tree, family(1.0), gb, gs)
            curve = strategic_revenue_curve(tree, gb, gs, grid)
            for H in (2.0 ** -40, 2.0 ** 40):
                assert expected_strategic_revenue(_scaled(tree, H), family(H), gb, gs) \
                    == H * revenue, (T, H)
                assert strategic_revenue_curve(_scaled(tree, H), gb, gs, H * grid).strategies \
                    == curve.strategies, (T, H)


def test_a_scaled_threshold_ties_the_same_strategies():
    rng = np.random.default_rng(3)
    gb, gs = make_geometric_discount(0.3, 3), make_geometric_discount(0.8, 3)
    tree = random_tree(rng, 3, hi=1.0)
    thresholds = envelope_breakpoints(strategy_tables(tree, gb, gs), 0.0, 1.0)
    assert len(thresholds) > 0
    for v in thresholds:
        expected = best_response(tree, v, gb, gs)
        assert expected.tie_count == 2
        for H in (2.0 ** -40, 2.0 ** 40):
            response = best_response(_scaled(tree, H), H * v, gb, gs)
            assert (response.strategy, response.tie_count) == (
                expected.strategy, expected.tie_count), (v, H)


def test_breakpoint_alignment_handles_jumps():
    # the revenue curve of a pay-up-front tree jumps at an interior point,
    # the one-shot price; the expected revenue is exact across the jump
    b = Beta(4, 2)
    gb = make_geometric_discount(0.5, 6)
    gs = make_geometric_discount(0.5, 6)
    tree, closed_form = big_deal(b, gb, gs)
    assert expected_strategic_revenue(tree, b, gb, gs) == pytest.approx(
        closed_form, abs=1e-12)


# relative gap to the exact revenue at T = 2, 3, 4, worst over seeds 0-19 of
# the draws below: 6.1e-15, 1.4e-14 and 1.5e-13 (median seed 2.6e-15,
# 5.4e-15 and 1.5e-14).  Near-equal quantities q_a, q_b amplify rounding
# in the breakpoint (r_a - r_b) / (q_a - q_b)
EXACT_REVENUE_RTOL = {2: 1e-14, 3: 3e-14, 4: 3e-13}


@pytest.mark.parametrize("T", [2, 3, 4])
def test_expected_revenue_matches_exact_rationals_on_uniform(T):
    # dyadic prices on Uniform(0, 1) and Uniform(2, 3), each scaled by 2^-40,
    # 1 and 2^40, against the Fraction envelope of tests/exact_kernel.py
    rng = np.random.default_rng(T)
    nodes = canonical_nodes(T)
    for (lo, hi), H in product([(0.0, 1.0), (2.0, 3.0)], [2.0 ** -40, 1.0, 2.0 ** 40]):
        lo, hi = lo * H, hi * H
        for _ in range(10):
            gb, gs = (make_geometric_discount(rate, T) for rate in rng.uniform(0.1, 0.9, 2))
            prices = lo + (hi - lo) * rng.integers(0, 1025, len(nodes)) / 1024
            tree = PricingTree(T, dict(zip(nodes, prices)))
            got = expected_strategic_revenue(tree, Uniform(lo, hi), gb, gs)
            exact = exact_expected_revenue(prices, gb.weights, gs.weights, lo, hi)
            assert abs(Fraction(got) - exact) <= EXACT_REVENUE_RTOL[T] * exact, (lo, hi)


def test_envelope_breakpoints_of_constant_tree():
    g = DiscountSequence([1.0, 0.5])
    tables = strategy_tables(PricingTree.constant(2, 0.5), g, g)
    cuts = envelope_breakpoints(tables, 0.0, 1.0)
    assert cuts == pytest.approx([0.5])


@pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (0.0, float("inf")), (-1.0, 1.0),
                                    ("0", 1.0), (0.0, True), (1.0, 0.0), (0.5, 0.5)],
                         ids=["nan-lo", "inf-hi", "negative-lo", "string-lo", "bool-hi",
                              "lo-above-hi", "empty-interval"])
def test_envelope_breakpoints_refuse_a_bad_interval(lo, hi):
    g = make_geometric_discount(0.5, 2)
    tables = strategy_tables(PricingTree(2, {"": 0.5, "0": 0.2, "1": 0.9}), g, g)
    assert envelope_breakpoints(tables, 0, 1) == pytest.approx([0.2, 0.8, 0.9])
    with pytest.raises(InvalidParameterError):
        envelope_breakpoints(tables, lo, hi)


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_equal_discounts_recovers_constant_value():
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5, 2)
    tree, value = brute_force_optimal_tree(u, g, g)
    # the optimal value is 0.25 * Gamma; the grid can only miss by one cell
    assert value == pytest.approx(0.25 * g.total, abs=0.25 * g.total / 49)


def test_brute_force_guards():
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5, 2)
    with pytest.raises(InvalidParameterError):
        brute_force_optimal_tree(u, make_geometric_discount(0.3, 3),
                                 make_geometric_discount(0.8, 3))


def test_brute_force_refuses_weights_that_are_not_finite():
    # the density 1e310 overflows, so every score would be NaN and the
    # all-zero tree would win with value 0
    with pytest.raises(InvalidParameterError, match="quadrature weights are not finite"):
        brute_force_optimal_tree(Uniform(0, 1e-310), make_geometric_discount(0.3, 2),
                                 make_geometric_discount(0.8, 2))


def test_brute_force_degenerate_grid(monkeypatch):
    monkeypatch.setattr(oracle, "BRUTE_FORCE_GRID", 1)
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5, 2)
    tree, value = brute_force_optimal_tree(u, g, g)
    assert set(tree.prices().values()) == {0.0}  # the single grid price
    assert value == pytest.approx(0.0, abs=1e-12)


def test_brute_force_beats_baseline_for_impatient_buyer():
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.2, 2)
    gs = make_geometric_discount(0.8, 2)
    _, value = brute_force_optimal_tree(u, gb, gs)
    assert value >= gs.total * 0.25


def argmax_grid_search(dist, buyer, seller):
    """The grid search in its first form: one (trees, 4, nodes) surplus array,
    the best response by argmax over the strategies, and the first best score."""
    gb, gs = _finite_weights(buyer, 2), _finite_weights(seller, 2)
    lo, hi = dist.support
    grid = np.linspace(lo, hi, oracle.BRUTE_FORCE_GRID)
    prices = np.stack([a.ravel() for a in np.meshgrid(grid, grid, grid, indexing="ij")],
                      axis=1)
    bits = strategy_bits(2)
    r_buyer = prices @ _payment_matrix(bits, gb).T
    r_seller = prices @ _payment_matrix(bits, gs).T
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(lo, hi, 9)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
    fw = (half * w).ravel() * dist.pdf(nodes)
    surplus = (bits @ gb)[None, :, None] * nodes[None, None, :] - r_buyer[:, :, None]
    revenue = np.take_along_axis(r_seller, np.argmax(surplus, axis=1), axis=1)
    tree = PricingTree(2, dict(zip(canonical_nodes(2), prices[np.argmax(revenue @ fw)])))
    return tree, expected_strategic_revenue(tree, dist, buyer, seller)


@pytest.mark.parametrize("spec,gb_rate,gs_rate", [
    ("uniform:0,1", 0.3, 0.8), ("beta:0.5,0.5", 0.3, 0.8), ("beta:4,2", 0.3, 0.8),
    ("texp:50,1", 0.3, 0.8), ("uniform:2,3", 0.3, 0.8),
    ("uniform:0,1", 0.5, 0.5), ("beta:4,2", 0.5, 0.5),
])
def test_brute_force_picks_the_argmax_winner(monkeypatch, spec, gb_rate, gs_rate):
    # 1,728 trees in 144 (root, left) pairs of 12.  Chunks of one pair score
    # each pair alone; chunks of 7 pairs end with a partial chunk of 4
    monkeypatch.setattr(oracle, "BRUTE_FORCE_GRID", 12)
    dist = parse_distribution(spec)
    buyer, seller = make_geometric_discount(gb_rate, 2), make_geometric_discount(gs_rate, 2)
    expected_tree, expected_value = argmax_grid_search(dist, buyer, seller)
    for chunk in (1, 7):
        monkeypatch.setattr(oracle, "BRUTE_FORCE_CHUNK", chunk)
        tree, value = brute_force_optimal_tree(dist, buyer, seller)
        assert tree.prices() == expected_tree.prices()
        assert value == expected_value


@pytest.mark.parametrize("spec,prices,value", [
    ("uniform:0,1", (0.5102040816326531, 0.36734693877551017, 0.5714285714285714),
     0.4745522698875469),
    ("beta:4,2", (0.5510204081632653, 0.44897959183673464, 0.5918367346938775),
     0.760527079175474),
])
def test_brute_force_full_grid_winner_is_pinned(spec, prices, value):
    # recorded with the (trees, 4, nodes) argmax kernel, gb 0.3 and gs 0.8
    tree, got = brute_force_optimal_tree(parse_distribution(spec),
                                         make_geometric_discount(0.3, 2),
                                         make_geometric_discount(0.8, 2))
    assert tuple(tree.prices().values()) == prices
    assert got == value


def test_brute_force_search_holds_one_chunk_of_pairs_at_a_time():
    # one full-grid search peaks at about 11 MiB of traced memory: the
    # (125,000, 3) price grid, the (4, 125,000) payment tables and one chunk
    # of (5, 50, 256) arrays.  A head table for the whole grid would not fit
    dist, g = parse_distribution("beta:4,2"), make_geometric_discount(0.3, 2)
    tracemalloc.start()
    try:
        brute_force_optimal_tree(dist, g, make_geometric_discount(0.8, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# exact uniform reference: face enumeration over the cone

# (spec, T, gb_rate, exact value) at gs = 0.8: optima on the support's lower
# edge, v_1 = lo, which the ascent misses (ROADMAP break 3)
UNIFORM_EDGE_OPTIMA = [
    ("uniform:1,3", 2, 0.16, 2.196219512195121),
    ("uniform:2,3", 3, 0.1, 4.891684549356244),
    ("uniform:2,3", 3, 0.3, 4.880304878048783),
    ("uniform:1,3", 3, 0.05, 3.2043003567435027),
]


@pytest.mark.parametrize("spec, T, gb_rate, exact", UNIFORM_EDGE_OPTIMA)
def test_face_optimum_at_the_support_edge_is_a_tree_revenue(spec, T, gb_rate, exact):
    dist = parse_distribution(spec)
    gb, gs = make_geometric_discount(gb_rate, T), make_geometric_discount(0.8, T)
    system = build_system(gb, gs)
    v, value = uniform_face_optimum(system.Xi, dist)
    assert value == pytest.approx(exact, rel=1e-12)
    assert v[0] == dist.lo
    revenue = expected_strategic_revenue(v_to_tree(system, v), dist, gb, gs)
    assert revenue == pytest.approx(value, rel=1e-12)


def test_face_optimum_value_is_the_revenue_form_at_its_point():
    # any square kernel: the point is in the cone and its value is L there
    rng = np.random.default_rng(16)
    for _ in range(60):
        k = int(rng.integers(1, 5))
        matrix = rng.normal(size=(k, k))
        dist = Uniform(*np.sort(rng.uniform(0.0, 3.0, 2)))
        v, value = uniform_face_optimum(matrix, dist)
        assert v[0] >= 0.0 and np.all(np.diff(v) >= 0.0)
        assert value == pytest.approx(L_value(matrix, dist, v), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("spec", ["uniform:0,1", "uniform:2,3"])
def test_no_sampled_cone_point_beats_the_face_optimum(spec):
    dist = parse_distribution(spec)
    rng = np.random.default_rng(7)
    for T in (2, 3):
        system = build_system(make_geometric_discount(0.3, T), make_geometric_discount(0.8, T))
        _, value = uniform_face_optimum(system.Xi, dist)
        samples = np.sort(rng.uniform(0.0, 1.5 * dist.hi, (2000, system.k)), axis=1)
        sampled = (1.0 - dist.cdf(samples)) * (samples @ system.Xi.T)
        assert sampled.sum(axis=1).max() <= value * (1 + 1e-12)


@pytest.mark.parametrize("dist, matrix, error", [
    (Beta(2, 2), np.eye(3), InvalidParameterError),
    ("uniform:0,1", np.eye(3), InvalidParameterError),
    (Uniform(0, 1), np.ones((2, 3)), InvalidParameterError),
    (Uniform(0, 1), np.ones(3), InvalidParameterError),
    (Uniform(0, 1), np.full((3, 3), np.nan), InvalidParameterError),
    (Uniform(0, 1), np.eye(8), ResourceLimitError),
], ids=["beta", "spec-string", "non-square", "vector", "nan", "k-8"])
def test_face_optimum_refuses_before_any_face_is_built(monkeypatch, dist, matrix, error):
    def enumerate_faces(*args):
        raise AssertionError("a face was enumerated")
    monkeypatch.setattr(oracle, "combinations_with_replacement", enumerate_faces)
    with pytest.raises(error):
        uniform_face_optimum(matrix, dist)
