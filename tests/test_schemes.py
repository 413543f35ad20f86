import numpy as np
import pytest

from postedprice import (Beta, DiscountSequence, InvalidParameterError,
                         PatienceOrderWarning, RegularityError, ResourceLimitError,
                         TruncatedExponential, Uniform,
                         best_response, big_deal, constant_myerson,
                         expected_strategic_revenue,
                         make_geometric_discount, maximize_L, myerson_price,
                         truncate)
from postedprice import schemes

BETA42_H_STAR = 0.409648251967  # frozen from the 10^6-point grid oracle


# ---------------------------------------------------------------------------
# constant pricing


def test_constant_myerson_infinite_uniform():
    tree, revenue = constant_myerson(Uniform(0, 1), truncate(0.5, 0.5, 4).seller)
    assert revenue == pytest.approx(0.5, abs=1e-9)
    assert tree.horizon == 4


def test_constant_myerson_finite_weights():
    tree, revenue = constant_myerson(Uniform(0, 1), DiscountSequence([1, 0.8, 0.64]))
    assert revenue == pytest.approx(0.61, abs=1e-9)
    assert tree.horizon == 3
    assert np.allclose(list(tree.prices().values()), 0.5, atol=1e-6)


def test_constant_myerson_beta():
    _, revenue = constant_myerson(Beta(4, 2), truncate(0.6, 0.6, 5).seller)
    assert revenue == pytest.approx(1 / (1 - 0.6) * BETA42_H_STAR, abs=1e-9)


# ---------------------------------------------------------------------------
# the big deal


def test_big_deal_infinite_half_rate():
    u = Uniform(0, 1)
    game = truncate(0.5, 0.5, 6)
    tree, revenue = big_deal(u, game.buyer, game.seller)
    assert tree.horizon == 6
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
    game = truncate(0.5, 0.5, 8)
    tree, _ = big_deal(u, game.buyer, game.seller)
    p_star, _ = myerson_price(u)
    for v in np.linspace(0.0, 1.0, 50):
        br = best_response(tree, float(v), game.buyer, game.seller)
        expected_first = "1" if v > p_star else "0"
        assert br.strategy[0] == expected_first


def test_big_deal_revenue_identity_by_quadrature():
    u = Uniform(0, 1)
    for rate in (0.2, 0.8):
        game = truncate(rate, rate, 10)
        tree, closed_form = big_deal(u, game.buyer, game.seller)
        quad = expected_strategic_revenue(tree, u, game.buyer, game.seller)
        assert quad == pytest.approx(closed_form, abs=1e-12)
        assert closed_form == pytest.approx(1 / (1 - rate) * 0.25, abs=1e-9)


def test_big_deal_dominance_ratio():
    u = Uniform(0, 1)
    for gs_rate, gb_rate in [(0.2, 0.5), (0.5, 0.8), (0.3, 0.9)]:
        game = truncate(gb_rate, gs_rate, 4)
        _, bd = big_deal(u, game.buyer, game.seller)
        _, base = constant_myerson(u, game.seller)
        assert bd / base == pytest.approx((1 / (1 - gb_rate)) / (1 / (1 - gs_rate)),
                                          abs=1e-6)


def test_big_deal_single_round_rejected():
    with pytest.raises(InvalidParameterError):
        big_deal(Uniform(0, 1), DiscountSequence([1.0]), DiscountSequence([1.0]))


def test_big_deal_warns_when_seller_is_more_patient():
    # the slack is relative, so the warning does not depend on the weights'
    # unit, even where their gaps (at most 2.3e-15 at 2^-50) are tiny
    u = Uniform(0, 1)
    game = truncate(0.2, 0.8, 4)
    for scale in (1.0, 2.0 ** -50, 2.0 ** 50):
        gb, gs = (DiscountSequence([scale * w for w in d.weights])
                  for d in (game.buyer, game.seller))
        with pytest.warns(PatienceOrderWarning):
            big_deal(u, gb, gs)


def test_schemes_take_one_finite_game():
    u = Uniform(0, 1)
    g3, g4 = make_geometric_discount(0.5, 3), make_geometric_discount(0.5, 4)
    for gb, gs in [(g3, g4), (g4, g3)]:
        with pytest.raises(InvalidParameterError, match="must have length"):
            big_deal(u, gb, gs)


# ---------------------------------------------------------------------------
# truncation


def test_truncate_examples():
    assert truncate(0.5, 0.5, 2).buyer.weights == pytest.approx((1.0, 1.0))
    assert truncate(0.8, 0.8, 3).buyer.weights == pytest.approx((1.0, 0.8, 3.2))
    assert truncate(0.5, 0.5, 1).buyer.weights == pytest.approx((2.0,))


def test_truncate_preserves_totals_and_tail():
    game = truncate(0.3, 0.8, 5)
    assert game.buyer.total == pytest.approx(1 / (1 - 0.3), abs=1e-12)
    assert game.seller.total == pytest.approx(1 / (1 - 0.8), abs=1e-12)
    assert game.seller_tail == pytest.approx(0.8**5 / 0.2)
    assert game.tail_bound(Uniform(0, 1)) == pytest.approx(0.8**5 / 0.2 * 0.5)


def test_truncate_reads_its_rates_as_floats():
    game = truncate(0.5, np.float32(0.3), 3)
    assert game == truncate(0.5, float(np.float32(0.3)), 3)
    assert type(game.seller_tail) is float


def test_truncate_guards(monkeypatch):
    for rate in (0.0, 1.0, -0.2, 1.5, float("nan"), "0.5", True):
        for rates in ((rate, 0.5), (0.5, rate)):
            with pytest.raises(InvalidParameterError, match="^geometric rate must"):
                truncate(*rates, 3)

    def no_weights(*args):
        raise AssertionError("a weight was built")
    monkeypatch.setattr(schemes, "make_geometric_discount", no_weights)
    monkeypatch.setattr(schemes, "DiscountSequence", no_weights)
    for tau in (0, -1, 2.5, 3.0, "3", True):
        with pytest.raises(InvalidParameterError, match="tau must be a positive integer"):
            truncate(0.5, 0.5, tau)
    with pytest.raises(ResourceLimitError, match="tau 21 exceeds"):
        truncate(0.5, 0.5, 21)


# ---------------------------------------------------------------------------
# tau-step pricing: the truncated game, solved


def _tau_step(dist, gb, gs, tau, **opts):
    game = truncate(gb, gs, tau)
    return game, maximize_L(dist, game.buyer, game.seller, **opts)


def test_tau_step_equal_discounts_is_flat_in_tau():
    # rate 0.4: its tail-aggregated truncations stay regular (rate 0.5 would
    # not -- the aggregated tail 0.5**(tau-1)/0.5 collides with the weight
    # before it at every tau)
    u = Uniform(0, 1)
    for tau in (1, 2, 3):
        _, res = _tau_step(u, 0.4, 0.4, tau, starts=6, seed=0)
        assert res.value == pytest.approx(0.25 / (1 - 0.4), abs=1e-5)


def test_tau_step_rejects_non_regular_truncation():
    # the half-rate pathology: aggregation makes two rounds carry equal weight
    u = Uniform(0, 1)
    with pytest.raises(RegularityError):
        _tau_step(u, 0.5, 0.5, 2, starts=2, seed=0)


def test_tau_one_reduces_to_single_price_problem():
    u = Uniform(0, 1)
    _, res = _tau_step(u, 0.2, 0.8, 1, starts=6, seed=0)
    # one aggregated round: maximize Gamma^S * p * (1 - F(p)) directly
    grid = np.linspace(0.0, 1.0, 20001)
    oracle = max(1 / (1 - 0.8) * p * (1 - p) for p in grid)
    assert res.value == pytest.approx(oracle, abs=1e-6)


def test_tau_step_sandwich():
    u = Uniform(0, 1)
    game3, r3 = _tau_step(u, 0.2, 0.8, 3, starts=6, seed=1)
    _, r4 = _tau_step(u, 0.2, 0.8, 4, starts=6, seed=1)
    upper3 = r3.value + game3.tail_bound(u)
    assert r3.value <= r4.value + 1e-6
    assert r4.value <= upper3 + 1e-6
    assert upper3 == pytest.approx(r3.value + 0.8**3 / 0.2 * 0.5)


def test_tau_step_sandwich_at_tiny_texp_rate():
    # texp at rate 1e-300 is uniform on [0, 1] to double precision, so the
    # tail bound is the post-tau seller mass times a mean of 1/2
    dist = TruncatedExponential(1e-300, 1.0)
    game, res = _tau_step(dist, 0.3, 0.8, 3, starts=6)
    upper = res.value + game.tail_bound(dist)
    assert upper - res.value == pytest.approx(0.8**3 / 0.2 * 0.5)


def test_tree_deeper_than_the_enumeration_guard_is_refused(monkeypatch):
    def no_tree(*args):
        raise AssertionError("a tree was built")
    monkeypatch.setattr(schemes, "canonical_nodes", no_tree)
    monkeypatch.setattr(schemes, "PricingTree", no_tree)
    u = Uniform(0, 1)
    g = DiscountSequence([0.5 ** t for t in range(21)])  # make_geometric_discount refuses 21
    with pytest.raises(ResourceLimitError):
        big_deal(u, g, g)
    with pytest.raises(ResourceLimitError):
        constant_myerson(u, g)
