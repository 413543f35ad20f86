import numpy as np
import pytest

from postedprice import (Beta, DiscountSequence, InvalidParameterError,
                         PatienceOrderWarning, ResourceLimitError,
                         TruncatedExponential, Uniform,
                         best_response, big_deal, constant_myerson,
                         expected_strategic_revenue,
                         make_geometric_discount, myerson_price,
                         tau_step_optimal, truncate)

BETA42_H_STAR = 0.409648251967  # frozen from the 10^6-point grid oracle


# ---------------------------------------------------------------------------
# constant pricing


def test_constant_myerson_infinite_uniform():
    _, revenue = constant_myerson(Uniform(0, 1), make_geometric_discount(0.5))
    assert revenue == pytest.approx(0.5, abs=1e-9)


def test_constant_myerson_finite_weights():
    tree, revenue = constant_myerson(Uniform(0, 1), DiscountSequence([1, 0.8, 0.64]))
    assert revenue == pytest.approx(0.61, abs=1e-9)
    assert tree.horizon == 3
    assert np.allclose(list(tree.prices().values()), 0.5, atol=1e-6)


def test_constant_myerson_beta():
    gs = make_geometric_discount(0.6)
    _, revenue = constant_myerson(Beta(4, 2), gs)
    assert revenue == pytest.approx(gs.total * BETA42_H_STAR, abs=1e-9)


# ---------------------------------------------------------------------------
# the big deal


def test_big_deal_infinite_half_rate():
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5)
    tree, revenue = big_deal(u, g, g, tau=6)
    assert tree.price("") == pytest.approx(1.0, abs=1e-6)
    assert tree.price("0") == pytest.approx(2.0, abs=1e-6)
    assert all(tree.price(n) == 0.0 for n in tree.prices() if n.startswith("1"))
    assert revenue == pytest.approx(0.5, abs=1e-9)


def test_big_deal_ties_constant_pricing_under_equal_discounts():
    u = Uniform(0, 1)
    g = DiscountSequence([1.0, 0.5])
    _, bd_revenue = big_deal(u, g, g)
    _, const_revenue = constant_myerson(u, g)
    assert bd_revenue == pytest.approx(const_revenue, abs=1e-9)
    assert bd_revenue == pytest.approx(0.375, abs=1e-9)


def test_big_deal_acceptance_threshold():
    # enumeration confirms the proof's prediction: accept iff v > p_star
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5)
    tree, _ = big_deal(u, g, g, tau=8)
    game = truncate(g, g, 8)
    p_star, _ = myerson_price(u)
    for v in np.linspace(0.0, 1.0, 50):
        br = best_response(tree, float(v), game.buyer, game.seller)
        expected_first = 1 if v > p_star else 0
        assert br.strategy.decisions[0] == expected_first


def test_big_deal_revenue_identity_by_quadrature():
    u = Uniform(0, 1)
    for rate in (0.2, 0.8):
        g = make_geometric_discount(rate)
        tree, closed_form = big_deal(u, g, g, tau=10)
        game = truncate(g, g, 10)
        quad = expected_strategic_revenue(tree, u, game.buyer, game.seller)
        assert quad == pytest.approx(closed_form, abs=1e-12)
        assert closed_form == pytest.approx(g.total * 0.25, abs=1e-9)


def test_big_deal_dominance_ratio():
    u = Uniform(0, 1)
    for gs_rate, gb_rate in [(0.2, 0.5), (0.5, 0.8), (0.3, 0.9)]:
        gs = make_geometric_discount(gs_rate)
        gb = make_geometric_discount(gb_rate)
        _, bd = big_deal(u, gb, gs, tau=4)
        _, base = constant_myerson(u, gs)
        assert bd / base == pytest.approx(gb.total / gs.total, abs=1e-6)


def test_big_deal_single_round_rejected():
    with pytest.raises(InvalidParameterError):
        big_deal(Uniform(0, 1), DiscountSequence([1.0]), DiscountSequence([1.0]))


def test_big_deal_warns_when_seller_is_more_patient():
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.2)
    gs = make_geometric_discount(0.8)
    with pytest.warns(PatienceOrderWarning):
        big_deal(u, gb, gs, tau=4)


# ---------------------------------------------------------------------------
# truncation


def test_truncate_examples():
    g = make_geometric_discount(0.5)
    assert truncate(g, g, 2).buyer.weights == pytest.approx((1.0, 1.0))
    g8 = make_geometric_discount(0.8)
    assert truncate(g8, g8, 3).buyer.weights == pytest.approx((1.0, 0.8, 3.2))
    assert truncate(g, g, 1).buyer.weights == pytest.approx((2.0,))


def test_truncate_preserves_totals_and_tail():
    gs = make_geometric_discount(0.8)
    gb = make_geometric_discount(0.3)
    game = truncate(gb, gs, 5)
    assert game.buyer.total == pytest.approx(gb.total, abs=1e-12)
    assert game.seller.total == pytest.approx(gs.total, abs=1e-12)
    assert game.seller_tail == pytest.approx(0.8**5 / 0.2)
    assert game.tail_bound(Uniform(0, 1)) == pytest.approx(0.8**5 / 0.2 * 0.5)


def test_truncate_guards():
    g = make_geometric_discount(0.5)
    with pytest.raises(InvalidParameterError):
        truncate(g, g, 0)
    short = DiscountSequence([1.0, 0.5])
    with pytest.raises(InvalidParameterError):
        truncate(short, short, 3)
    with pytest.raises(ResourceLimitError):
        truncate(g, g, 21)  # refused before any weight is built


def test_truncate_explicit_finite_tail_aggregation():
    d = DiscountSequence([1.0, 0.5, 0.25, 0.125])
    game = truncate(d, d, 2)
    assert game.buyer.weights == pytest.approx((1.0, 0.875))
    assert game.seller_tail == pytest.approx(0.375)


# ---------------------------------------------------------------------------
# tau-step pricing


def test_tau_step_equal_discounts_is_flat_in_tau():
    # rate 0.4: its tail-aggregated truncations stay regular (rate 0.5 would
    # not -- the aggregated tail 0.5**(tau-1)/0.5 collides with the weight
    # before it at every tau)
    u = Uniform(0, 1)
    g = make_geometric_discount(0.4)
    for tau in (1, 2, 3):
        res = tau_step_optimal(u, g, g, tau, starts=6, seed=0)
        assert res.value == pytest.approx(0.25 * g.total, abs=1e-5)


def test_tau_step_rejects_non_regular_truncation():
    # the half-rate pathology: aggregation makes two rounds carry equal weight
    from postedprice import RegularityError
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5)
    with pytest.raises(RegularityError):
        tau_step_optimal(u, g, g, 2, starts=2, seed=0)


def test_tau_one_reduces_to_single_price_problem():
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.2)
    gs = make_geometric_discount(0.8)
    res = tau_step_optimal(u, gb, gs, 1, starts=6, seed=0)
    # one aggregated round: maximize Gamma^S * p * (1 - F(p)) directly
    grid = np.linspace(0.0, 1.0, 20001)
    oracle = max(gs.total * p * (1 - p) for p in grid)
    assert res.value == pytest.approx(oracle, abs=1e-6)


def test_tau_step_sandwich():
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.2)
    gs = make_geometric_discount(0.8)
    r3 = tau_step_optimal(u, gb, gs, 3, starts=6, seed=1)
    r4 = tau_step_optimal(u, gb, gs, 4, starts=6, seed=1)
    assert r3.value <= r4.value + 1e-6
    assert r4.value <= r3.opt_upper + 1e-6
    assert r3.opt_upper == pytest.approx(r3.value + 0.8**3 / 0.2 * 0.5)


def test_tau_step_sandwich_at_tiny_texp_rate():
    # texp at rate 1e-300 is uniform on [0, 1] to double precision, so the
    # tail bound is the post-tau seller mass times a mean of 1/2
    gb = make_geometric_discount(0.3)
    gs = make_geometric_discount(0.8)
    res = tau_step_optimal(TruncatedExponential(1e-300, 1.0), gb, gs, 3, starts=6)
    assert res.opt_upper - res.opt_lower == pytest.approx(0.8**3 / 0.2 * 0.5)


def test_big_deal_mixed_finite_infinite_discounts():
    # finite seller inside an infinite buyer game: depth follows the finite
    # side, totals stay exact, and the seller is pointwise less patient
    u = Uniform(0, 1)
    gb = make_geometric_discount(0.8)
    gs = DiscountSequence([1.0, 0.5, 0.25])
    tree, revenue = big_deal(u, gb, gs)
    assert tree.horizon == 3
    assert tree.price("") == pytest.approx(gb.total * 0.5, abs=1e-6)
    assert revenue == pytest.approx(gb.total * 0.25, abs=1e-7)


def test_big_deal_infinite_requires_tau():
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5)
    with pytest.raises(InvalidParameterError, match="tau"):
        big_deal(u, g, g, tau=1)


def test_tree_deeper_than_the_enumeration_guard_is_refused():
    u = Uniform(0, 1)
    g = make_geometric_discount(0.5)
    with pytest.raises(ResourceLimitError):
        big_deal(u, g, g, tau=21)
    with pytest.raises(ResourceLimitError):
        constant_myerson(u, g, horizon=21)
