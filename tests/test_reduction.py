import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from postedprice import (Beta, DiscountSequence, InvalidParameterError,
                         L_gradient, L_hessian, L_value, TruncatedExponential,
                         PricingTree, RegularityError, Uniform, best_response,
                         build_system, canonical_nodes, core, expected_strategic_revenue,
                         make_geometric_discount, order_strategies, reduced_T2_functional,
                         reduction, tree_to_v, truncate, v_to_tree)

from exact_kernel import exact_xi
from test_acceptance import REGRESSION_TAU_VALUES

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def random_delta_point(rng, k, lo=0.0, hi=1.0):
    return np.sort(rng.uniform(lo, hi, k))


# ---------------------------------------------------------------------------
# orderings


def test_order_strategies_half_rate():
    order = order_strategies(DiscountSequence([1.0, 0.5]))
    assert order.strategies == ("00", "01", "10", "11")
    assert order.quantities == pytest.approx([0.0, 0.5, 1.0, 1.5])


def test_order_strategies_single_round():
    order = order_strategies(DiscountSequence([1.0]))
    assert order.strategies == ("0", "1")


def test_order_flips_above_golden_rate():
    # beyond the golden ratio the two-then-three acceptance overtakes the
    # first-round-only acceptance, permuting the middle of the order
    order = order_strategies(make_geometric_discount(0.7, 3))
    strategies = order.strategies
    assert strategies.index("011") > strategies.index("100")
    order = order_strategies(make_geometric_discount(0.5, 3))
    assert order.strategies.index("011") < order.strategies.index("100")


def test_unit_weights_are_not_regular():
    with pytest.raises(RegularityError) as excinfo:
        order_strategies(DiscountSequence([1.0, 1.0]))
    assert set(excinfo.value.pair) == {"01", "10"}


def test_golden_rate_is_not_regular():
    order_strategies(make_geometric_discount(0.5, 3))
    with pytest.raises(RegularityError) as excinfo:
        order_strategies(make_geometric_discount(GOLDEN, 3))
    assert set(excinfo.value.pair) == {"011", "100"}


# ---------------------------------------------------------------------------
# system matrices


def test_payment_matrix_structure_T2():
    b = 0.37
    sys_ = build_system(DiscountSequence([1.0, b]), DiscountSequence([1.0, b]))
    # columns are the prices at nodes "", "0", "1"; rows the strategies 01, 10, 11
    assert np.allclose(sys_.W, [[0, 1, 0], [1 / (1 - b), -b / (1 - b), 0], [0, 0, 1]])


def test_system_holds_the_order_and_three_matrices():
    sys_ = build_system(make_geometric_discount(0.3, 3), make_geometric_discount(0.8, 3))
    assert [f.name for f in dataclasses.fields(sys_)] == ["order", "W", "W_inv", "Xi"]
    assert repr(sys_) == "ReductionSystem(T=3, k=7)"
    assert sys_.W_inv @ sys_.W == pytest.approx(np.eye(7), abs=1e-12)


def test_xi_closed_form_T2():
    b, s = 0.31, 0.74
    sys_ = build_system(DiscountSequence([1.0, b]), DiscountSequence([1.0, s]))
    expected = [[s, 0, 0], [-(s - b), 1 - b, 0], [0, 0, s]]
    assert np.allclose(sys_.Xi, expected, atol=1e-12)


def test_equal_discounts_xi_is_diagonal():
    g = make_geometric_discount(0.5, 3)
    sys_ = build_system(g, g)
    gaps = np.diff(order_strategies(g).quantities)
    assert np.allclose(sys_.Xi, np.diag(gaps), atol=1e-12)


def _game(gb, gs, T):
    return make_geometric_discount(gb, T), make_geometric_discount(gs, T)


@pytest.mark.parametrize("buyer, seller", [
    *(_game(0.3, 0.8, T) for T in (2, 3, 4, 5)),
    (truncate(0.2, 0.8, 5).buyer, truncate(0.2, 0.8, 5).seller),
    _game(0.072, 0.656, 4),
    _game(0.055, 0.286, 5),
    (truncate(0.9, 0.3, 4).buyer, truncate(0.9, 0.3, 4).seller),  # gb > gs
], ids=["T2", "T3", "T4", "T5", "tau5", "T4-gb.072-gs.656", "T5-gb.055-gs.286", "tau4-gb.9-gs.3"])
def test_xi_matches_the_exact_rational_kernel(buyer, seller):
    system = build_system(buyer, seller)
    exact = exact_xi(system.order.strategies, system.order.quantities,
                     buyer.weights, seller.weights)
    scale = max(abs(x) for row in exact for x in row)
    error = max(abs(Fraction(float(x)) - e)
                for row, exact_row in zip(system.Xi, exact) for x, e in zip(row, exact_row))
    assert float(error / scale) <= 2e-15


def _matrices_from_scratch(buyer, seller):
    """W, W_inv and Xi formed with nothing kept between calls: every payment
    matrix from `order.bits`, and its row increments by `np.diff`."""
    order = order_strategies(buyer)
    dK_bb, dK_bs = (np.diff(core._payment_matrix(order.bits[1:], w), axis=0, prepend=0.0)
                    for w in (buyer.as_array(), seller.as_array()))
    W = (1.0 / np.diff(order.quantities))[:, None] * dK_bb
    W_inv = np.linalg.inv(W)
    return W, W_inv, dK_bs @ W_inv


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_game(T):
    rng = np.random.default_rng(500 + T)
    return DiscountSequence(rng.uniform(0.05, 1.0, T)), DiscountSequence(rng.uniform(0.05, 1.0, T))


@pytest.mark.parametrize("buyer, seller", [
    *(_random_game(T) for T in range(1, 7)),
    _game(0.3, 0.8, 2),
    (truncate(0.6, 0.8, 2).buyer, truncate(0.6, 0.8, 2).seller),  # 01 ranks above 10
    *((truncate(0.2, 0.8, tau).buyer, truncate(0.2, 0.8, tau).seller)
      for tau in sorted(REGRESSION_TAU_VALUES)),
], ids=[*(f"random-T{T}" for T in range(1, 7)), "T2-geometric", "T2-reordered",
        *(f"tau{tau}" for tau in sorted(REGRESSION_TAU_VALUES))])
def test_the_kept_layout_forms_the_same_matrix_bytes(buyer, seller):
    system = build_system(buyer, seller)
    W, W_inv, Xi = _matrices_from_scratch(buyer, seller)
    assert _same_bytes(system.W, W)
    assert _same_bytes(system.W_inv, W_inv)
    assert _same_bytes(system.Xi, Xi)


@pytest.mark.parametrize("T", range(1, 7))
def test_the_payment_matrix_scatters_as_put_along_axis_does(T):
    bits = core.strategy_bits(T)[::-1]  # any row order
    w = np.random.default_rng(T).uniform(0.05, 1.0, T)
    K = np.zeros((len(bits), 2 ** T - 1))
    np.put_along_axis(K, core._pricing_nodes(bits), bits * w, axis=1)
    assert _same_bytes(core._payment_matrix(bits, w), K)


def test_no_caller_can_write_into_a_horizon_s_layout():
    game = truncate(0.6, 0.8, 2)
    v = np.array([0.2, 0.5, 0.7])
    system = build_system(game.buyer, game.seller)
    tree = v_to_tree(system, v)
    bits, nodes, names = reduction._layout(2)
    assert not bits.flags.writeable and not nodes.flags.writeable
    assert isinstance(names, tuple)
    with pytest.raises(ValueError, match="read-only"):
        bits[0, 0] = 1
    # what callers get back are their own copies
    system.order.bits[:] = 1
    order_strategies(game.buyer).bits[:] = 0
    canonical_nodes(2).reverse()
    canonical_nodes(2)[:] = ["1", "0", ""]
    again = build_system(game.buyer, game.seller)
    for a, b in ((again.W, system.W), (again.W_inv, system.W_inv), (again.Xi, system.Xi)):
        assert _same_bytes(a, b)
    assert v_to_tree(again, v) == tree
    assert list(v_to_tree(again, v).prices()) == ["", "0", "1"]


def test_the_layouts_kept_are_the_solver_s_horizons():
    assert reduction._layout.cache_info().maxsize == reduction.MAX_SYSTEM_HORIZON
    held = reduction._layout.cache_info().currsize
    order = order_strategies(make_geometric_discount(0.3, 8))  # above the solver's horizons
    assert order.bits.shape == (256, 8)
    assert reduction._layout.cache_info().currsize == held


def test_build_system_requires_positive_weights():
    with pytest.raises(InvalidParameterError):
        build_system(DiscountSequence([1.0, 0.5, 0.0]), DiscountSequence([1.0, 0.5, 0.25]))


def test_systems_are_well_conditioned_at_small_horizons():
    for T in (2, 3, 4):
        gb = make_geometric_discount(0.4, T)
        gs = make_geometric_discount(0.8, T)
        sys_ = build_system(gb, gs)
        cond_W, cond_Xi = np.linalg.cond(sys_.W), np.linalg.cond(sys_.Xi)
        assert np.isfinite(cond_W) and np.isfinite(cond_Xi)
        assert cond_W < 1e6 and cond_Xi < 1e6


# ---------------------------------------------------------------------------
# the tree <-> cone maps


def test_constant_tree_maps_to_constant_vector():
    g = DiscountSequence([1.0, 0.5])
    sys_ = build_system(g, g)
    v = tree_to_v(sys_, PricingTree.constant(2, 0.5))
    assert v == pytest.approx([0.5, 0.5, 0.5])


def test_pay_up_front_tree_is_not_completely_active():
    # hand-derived intersection abscissas for the tree (0.75; 3.0, 0.0)
    g = DiscountSequence([1.0, 0.5])
    sys_ = build_system(g, g)
    tree = PricingTree(2, {"": 0.75, "0": 3.0, "1": 0.0})
    v = tree_to_v(sys_, tree)
    assert v == pytest.approx([3.0, -1.5, 0.0])
    # cross-check the first abscissa by intersecting the surplus lines directly
    from postedprice import evaluate
    o1 = evaluate(tree, "01", 1.0, g, g)
    q1, r1 = o1.quantity, o1.quantity * 1.0 - o1.surplus
    assert r1 / q1 == pytest.approx(3.0)  # S_01 crosses S_00 = 0 at r/q


def test_v_to_tree_structure_T2():
    b = 0.2
    sys_ = build_system(DiscountSequence([1.0, b]), DiscountSequence([1.0, 0.8]))
    v = np.array([0.3, 0.5, 0.7])
    tree = v_to_tree(sys_, v)
    assert tree.price("0") == pytest.approx(0.3)
    assert tree.price("") == pytest.approx(b * 0.3 + (1 - b) * 0.5)
    assert tree.price("1") == pytest.approx(0.7)


def test_zero_vector_gives_zero_tree():
    g = make_geometric_discount(0.4, 3)
    sys_ = build_system(g, g)
    tree = v_to_tree(sys_, np.zeros(7))
    assert set(tree.prices().values()) == {0.0}


def test_v_to_tree_rejects_disorder():
    g = DiscountSequence([1.0, 0.5])
    sys_ = build_system(g, g)
    with pytest.raises(InvalidParameterError):
        v_to_tree(sys_, np.array([0.5, 0.3, 0.7]))
    with pytest.raises(InvalidParameterError):
        v_to_tree(sys_, np.array([-0.2, 0.3, 0.7]))


def test_the_maps_refuse_a_tree_or_point_of_another_size():
    g = DiscountSequence([1.0, 0.5])
    sys_ = build_system(g, g)
    with pytest.raises(InvalidParameterError, match="tree horizon does not match"):
        tree_to_v(sys_, PricingTree.constant(3, 0.5))
    with pytest.raises(InvalidParameterError, match=r"v must have shape \(3,\)"):
        v_to_tree(sys_, np.array([0.3, 0.5, 0.7, 0.9]))


def test_v_to_tree_clamps_the_cone_slack():
    # v_1 = -9e-10 is within CONE_ORDER_TOL of the cone; its price is clamped
    sys_ = build_system(make_geometric_discount(0.2, 2), make_geometric_discount(0.8, 2))
    tree = v_to_tree(sys_, [-9e-10, 0.5, 0.7])
    assert tree.price("0") == 0.0
    assert tree.price("") == pytest.approx(0.8 * 0.5)
    assert tree.price("1") == pytest.approx(0.7)


def test_v_to_tree_cone_slack_is_relative_to_the_point():
    # the slack is CONE_ORDER_TOL * ||v||_1: a 64-unit dip at 1e17 is rounding,
    # and a dip twice the values' own size at 1e-13 is not
    sys_ = build_system(make_geometric_discount(0.3, 2), make_geometric_discount(0.8, 2))
    tree = v_to_tree(sys_, [1e17, 1e17 - 64, 2e17])
    assert tree.price("0") == 1e17
    with pytest.raises(InvalidParameterError, match="v must satisfy"):
        v_to_tree(sys_, [3e-13, 1e-13, 2e-13])


@pytest.mark.parametrize("T", [2, 3, 4])
def test_round_trips(T):
    rng = np.random.default_rng(100 + T)
    gb = make_geometric_discount(0.45, T)
    gs = make_geometric_discount(0.85, T)
    sys_ = build_system(gb, gs)
    k = 2**T - 1
    for _ in range(34):
        v = random_delta_point(rng, k)
        tree = v_to_tree(sys_, v)
        assert tree_to_v(sys_, tree) == pytest.approx(v, abs=1e-9)
        again = v_to_tree(sys_, tree_to_v(sys_, tree))
        assert list(again.prices().values()) == pytest.approx(
            list(tree.prices().values()), abs=1e-9)


def test_buyer_picks_the_j_th_strategy_between_abscissas():
    # with v in the cone's strict interior, any valuation in (v_j, v_{j+1})
    # best-responds with the j-th strategy of the quantity order
    rng = np.random.default_rng(7)
    for T in (2, 3):
        gb = make_geometric_discount(0.35, T)
        gs = make_geometric_discount(0.75, T)
        sys_ = build_system(gb, gs)
        k = 2**T - 1
        for _ in range(5):
            v = np.sort(rng.uniform(0.05, 1.0, k))
            while np.min(np.diff(v)) < 1e-3 or v[0] < 1e-3:
                v = np.sort(rng.uniform(0.05, 1.0, k))
            tree = v_to_tree(sys_, v)
            edges = np.concatenate([[0.0], v, [v[-1] + 0.5]])
            for j in rng.choice(k + 1, size=3, replace=False):
                u = 0.5 * (edges[j] + edges[j + 1])
                br = best_response(tree, float(u), gb, gs)
                assert str(br.strategy) == sys_.order.strategies[j]


# ---------------------------------------------------------------------------
# the revenue form L


def test_L_at_constant_myerson_point_equal_discounts():
    g = make_geometric_discount(0.5, 3)
    sys_ = build_system(g, g)
    u = Uniform(0, 1)
    v = np.full(7, 0.5)
    assert L_value(sys_.Xi, u, v) == pytest.approx(0.25 * g.total)
    assert L_value(sys_.Xi, u, np.zeros(7)) == 0.0


@pytest.mark.parametrize("T,rates", [(2, (0.2, 0.8)), (3, (0.4, 0.7))])
def test_L_matches_oracle_quadrature(T, rates):
    rng = np.random.default_rng(55)
    gb = make_geometric_discount(rates[0], T)
    gs = make_geometric_discount(rates[1], T)
    sys_ = build_system(gb, gs)
    u = Uniform(0, 1)
    for _ in range(12):
        v = random_delta_point(rng, 2**T - 1)
        tree = v_to_tree(sys_, v)
        assert L_value(sys_.Xi, u, v) == pytest.approx(
            expected_strategic_revenue(tree, u, gb, gs), abs=1e-12)


@pytest.mark.parametrize("dist", [Uniform(0, 1), Beta(4, 2)],
                         ids=lambda d: d.spec_string())
@pytest.mark.parametrize("T,rates", [(2, (0.2, 0.8)), (3, (0.5, 0.9))])
def test_L_gradient_matches_finite_differences(dist, T, rates):
    rng = np.random.default_rng(14)
    gb = make_geometric_discount(rates[0], T)
    gs = make_geometric_discount(rates[1], T)
    sys_ = build_system(gb, gs)
    k = 2**T - 1
    h = 1e-6
    for _ in range(8):
        v = random_delta_point(rng, k, 0.1, 0.9)
        grad = L_gradient(sys_.Xi, dist, v)
        for i in range(k):
            e = np.zeros(k)
            e[i] = h
            fd = (L_value(sys_.Xi, dist, v + e) - L_value(sys_.Xi, dist, v - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("dist", [Uniform(0, 1), Beta(4, 2), TruncatedExponential(2.5, 0.8)],
                         ids=lambda d: d.spec_string())
def test_bilinear_hessian_matches_finite_differences(dist):
    rng = np.random.default_rng(15)
    Xi = build_system(make_geometric_discount(0.5, 3), make_geometric_discount(0.9, 3)).Xi
    h = 1e-6
    for _ in range(8):
        v = random_delta_point(rng, 7, 0.1, 0.7)
        fd = np.column_stack([(L_gradient(Xi, dist, v + h * e)
                               - L_gradient(Xi, dist, v - h * e)) / (2 * h)
                              for e in np.eye(7)])
        assert L_hessian(Xi, dist, v) == pytest.approx(fd, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# the T=2 collapse


def test_reduced_T2_matrix():
    matrix = reduced_T2_functional(0.8, 0.2)
    assert np.allclose(matrix, [[0.8, 0.0], [-0.6, 1.6]])
    with pytest.raises(InvalidParameterError):
        reduced_T2_functional(0.2, 0.8)
    with pytest.raises(InvalidParameterError):
        reduced_T2_functional(0.5, 0.5)
    for rates, what in [(("0.8", 0.2), "gs_rate"), ((0.8, True), "gb_rate"),
                        ((float("nan"), 0.2), "gs_rate")]:
        with pytest.raises(InvalidParameterError, match=f"{what} must be finite"):
            reduced_T2_functional(*rates)


def test_reduced_T2_agrees_with_full_form_on_the_plane():
    u = Uniform(0, 1)
    matrix = reduced_T2_functional(0.8, 0.2)
    gb = make_geometric_discount(0.2, 2)
    gs = make_geometric_discount(0.8, 2)
    sys_ = build_system(gb, gs)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v1, v2 = np.sort(rng.uniform(0.0, 1.0, 2))
        assert L_value(matrix, u, [v1, v2]) == pytest.approx(
            L_value(sys_.Xi, u, [v1, v2, v2]), abs=1e-12)


def test_system_horizon_guard():
    from postedprice import ResourceLimitError
    g = make_geometric_discount(0.3, 7)
    with pytest.raises(ResourceLimitError):
        build_system(g, g)


def test_reduced_T2_equal_rate_limit_is_diagonal():
    # at gb -> gs the kernel tends to diag(gs, 1) and the optimum to (p*, p*)
    u = Uniform(0, 1)
    from postedprice.optimizer import maximize_bilinear
    matrix = reduced_T2_functional(0.8, 0.8 - 1e-9)
    assert abs(matrix[1, 0]) < 1e-8
    v, value, *_ = maximize_bilinear(matrix, u, starts=6, seed=0)
    assert v == pytest.approx([0.5, 0.5], abs=1e-4)
    assert value == pytest.approx((1 + 0.8) * 0.25, abs=1e-6)


def test_reduction_above_the_golden_order_flip():
    # buyer rate 0.7 permutes the quantity order (011 overtakes 100); the
    # maps and the revenue form must be unaffected by the permutation
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.7, 3)
    gs = make_geometric_discount(0.9, 3)
    sys_ = build_system(gb, gs)
    assert sys_.order.strategies.index("011") > sys_.order.strategies.index("100")
    rng = np.random.default_rng(77)
    for _ in range(10):
        v = np.sort(rng.uniform(0.0, 1.0, 7))
        tree = v_to_tree(sys_, v)
        assert tree_to_v(sys_, tree) == pytest.approx(v, abs=1e-12)
        assert L_value(sys_.Xi, u, v) == pytest.approx(
            expected_strategic_revenue(tree, u, gb, gs), abs=1e-12)
    v = np.array([0.1, 0.2, 0.32, 0.45, 0.6, 0.75, 0.9])
    tree = v_to_tree(sys_, v)
    edges = np.concatenate([[0.0], v, [1.4]])
    for j in range(8):
        mid = float(0.5 * (edges[j] + edges[j + 1]))
        assert str(best_response(tree, mid, gb, gs).strategy) == \
            sys_.order.strategies[j]


@pytest.mark.parametrize("dist", [Beta(4, 2), Beta(0.5, 0.5),
                                  TruncatedExponential(1, 1),
                                  TruncatedExponential(50, 1)],
                         ids=lambda d: d.spec_string())
def test_L_matches_oracle_across_families(dist):
    # the revenue form is distribution-generic; check it off the uniform path
    rng = np.random.default_rng(21)
    gb = make_geometric_discount(0.25, 2)
    gs = make_geometric_discount(0.85, 2)
    sys_ = build_system(gb, gs)
    lo, hi = dist.support
    for _ in range(8):
        v = np.sort(rng.uniform(lo, hi, 3))
        tree = v_to_tree(sys_, v)
        assert L_value(sys_.Xi, dist, v) == pytest.approx(
            expected_strategic_revenue(tree, dist, gb, gs), abs=1e-12)
