import json
import math

import numpy as np
import pytest

from postedprice import (BuyerStrategy, DiscountSequence, InvalidParameterError,
                         PricingTree, canonical_nodes, evaluate,
                         make_geometric_discount, price_path)


# ---------------------------------------------------------------------------
# discount sequences


def test_geometric_finite():
    d = make_geometric_discount(0.5, 2)
    assert d.weights == (1.0, 0.5)
    assert d.total == 1.5


def test_geometric_infinite_total():
    d = make_geometric_discount(0.5)
    assert d.total == 2.0
    assert not d.is_finite
    assert d.tail_sum(2) == pytest.approx(1.0)


def test_geometric_truncated_three_rounds():
    d = make_geometric_discount(0.8, 3)
    assert d.weights == pytest.approx((1.0, 0.8, 0.64))
    assert d.total == pytest.approx(2.44)


@pytest.mark.parametrize("rate", [0.0, 1.0, -0.2, 1.5])
def test_geometric_rate_out_of_range(rate):
    with pytest.raises(InvalidParameterError):
        make_geometric_discount(rate, 2)


def test_validate_examples():
    DiscountSequence((1, 0.5, 0.25))
    with pytest.raises(InvalidParameterError,
                       match=r"zero before positive weight at index 2$"):
        DiscountSequence((1, 0, 0.25))
    with pytest.raises(InvalidParameterError, match=r"negative weight at index 1$"):
        DiscountSequence((1, -0.1))


def test_validate_more_rules():
    with pytest.raises(InvalidParameterError,
                       match=r"^invalid discount sequence: empty sequence$"):
        DiscountSequence(())
    with pytest.raises(InvalidParameterError,
                       match=r"first weight must be positive at index 0$"):
        DiscountSequence((0.0, 1.0))
    with pytest.raises(InvalidParameterError, match=r"non-finite weight at index 1$"):
        DiscountSequence((1.0, float("nan")))
    DiscountSequence((1.0, 0.5, 0.0))  # trailing zeros are fine


@pytest.mark.parametrize("rate", [0.05, 0.3, 0.5, 0.77, 0.9, 0.995])
@pytest.mark.parametrize("horizon", [1, 2, 6, 20])
def test_finite_geometric_is_its_weights(rate, horizon):
    d = make_geometric_discount(rate, horizon)
    same = DiscountSequence([rate ** t for t in range(horizon)])
    assert d == same and hash(d) == hash(same)
    assert d.total == d.tail_sum(1) == same.total
    assert eval(repr(d)) == d
    assert d != DiscountSequence(d.weights[:-1] + (d.weights[-1] * 0.5,))


def test_equal_discounts_hash_equal():
    assert len({make_geometric_discount(0.5, 3), DiscountSequence([1, 0.5, 0.25])}) == 1
    assert make_geometric_discount(0.5) == make_geometric_discount(0.5, math.inf)
    assert make_geometric_discount(0.5) != make_geometric_discount(0.25)
    assert make_geometric_discount(0.5, 1) != make_geometric_discount(0.5)
    assert eval(repr(make_geometric_discount(0.5))) == make_geometric_discount(0.5)


def test_constructor_rejects_invalid_weights():
    with pytest.raises(InvalidParameterError):
        DiscountSequence([1.0, -0.1])
    with pytest.raises(InvalidParameterError):
        DiscountSequence([1.0, 0.0, 0.5])


def test_weight_and_len():
    d = DiscountSequence([1.0, 0.5, 0.25])
    assert len(d) == 3
    assert d.weight(1) == 1.0 and d.weight(3) == 0.25 and d.weight(9) == 0.0
    with pytest.raises(TypeError):
        len(make_geometric_discount(0.5))


def test_infinite_weights_unavailable():
    with pytest.raises(InvalidParameterError):
        make_geometric_discount(0.5).weights


# ---------------------------------------------------------------------------
# pricing trees


def test_canonical_nodes():
    assert canonical_nodes(1) == [""]
    assert canonical_nodes(2) == ["", "0", "1"]
    assert canonical_nodes(3) == ["", "0", "1", "00", "01", "10", "11"]


def test_tree_completeness_enforced():
    with pytest.raises(InvalidParameterError):
        PricingTree(2, {"": 0.5, "0": 0.5})  # missing "1"
    with pytest.raises(InvalidParameterError):
        PricingTree(2, {"": 0.5, "0": 0.5, "1": 0.5, "00": 0.5})
    with pytest.raises(InvalidParameterError):
        PricingTree(2, {"": 0.5, "0": 0.5, "2": 0.5})
    with pytest.raises(InvalidParameterError):
        PricingTree(2, {"": 0.5, "0": -0.01, "1": 0.5})


def test_tree_zero_price_is_legal():
    tree = PricingTree(2, {"": 1.0, "0": 0.0, "1": 0.0})
    assert tree.price("0") == 0.0


def test_tree_json_round_trip():
    tree = PricingTree(2, {"": 0.6, "0": 0.3, "1": 0.9})
    obj = tree.to_json_dict()
    assert obj == {"horizon": 2, "prices": {"": 0.6, "0": 0.3, "1": 0.9}}
    assert PricingTree.from_json_dict(json.loads(json.dumps(obj))) == tree


@pytest.mark.parametrize("obj, fragment", [
    ([], "expected an object"),
    ({"prices": {}}, "/horizon"),
    ({"horizon": 2}, "/prices"),
    ({"horizon": 0, "prices": {}}, "/horizon"),
    ({"horizon": 2, "prices": {"": 0.5, "0": "x", "1": 0.5}}, "/prices/0"),
    ({"horizon": 2, "prices": {"": 0.5, "0": -1.0, "1": 0.5}}, "/prices/0"),
])
def test_tree_json_schema_errors(obj, fragment):
    with pytest.raises(InvalidParameterError, match="tree JSON"):
        PricingTree.from_json_dict(obj)


# ---------------------------------------------------------------------------
# paths and evaluation


@pytest.fixture
def small_tree():
    return PricingTree(2, {"": 0.6, "0": 0.3, "1": 0.9})


def test_price_path_follows_decisions(small_tree):
    assert price_path(small_tree, "10") == pytest.approx([0.6, 0.9])
    assert price_path(small_tree, "01") == pytest.approx([0.6, 0.3])
    # prices are offered whether or not the buyer accepts them
    assert price_path(small_tree, "00") == pytest.approx([0.6, 0.3])


def test_price_path_length_mismatch(small_tree):
    with pytest.raises(InvalidParameterError):
        price_path(small_tree, "101")


def test_evaluate_constant_tree():
    d = DiscountSequence([1.0, 0.5])
    out = evaluate(PricingTree.constant(2, 0.5), "11", 0.8, d, d)
    assert out.surplus == pytest.approx(0.45)
    assert out.revenue == pytest.approx(0.75)
    assert out.quantity == pytest.approx(1.5)


def test_evaluate_all_reject_is_zero():
    d = DiscountSequence([1.0, 0.5])
    tree = PricingTree(2, {"": 0.6, "0": 0.3, "1": 0.9})
    out = evaluate(tree, "00", 0.7, d, d)
    assert out.surplus == out.revenue == out.quantity == 0.0


def test_evaluate_pay_up_front_tree():
    # root charges the whole discounted value; accepting makes round 2 free
    d = DiscountSequence([1.0, 1.0])
    tree = PricingTree(2, {"": 1.0, "1": 0.0, "0": 2.0})
    out = evaluate(tree, "11", 0.8, d, d)
    assert out.surplus == pytest.approx(2 * 0.8 - 1.0)
    assert out.revenue == pytest.approx(1.0)


def test_evaluate_rejects_negative_valuation(small_tree):
    d = DiscountSequence([1.0, 0.5])
    with pytest.raises(InvalidParameterError):
        evaluate(small_tree, "11", -0.1, d, d)


def test_surplus_linear_in_valuation(small_tree):
    # under equal discounts: surplus(v) == quantity * v - revenue, exactly
    d = DiscountSequence([1.0, 0.5])
    rng = np.random.default_rng(0)
    for strategy in ("01", "10", "11"):
        for v in rng.uniform(0.0, 2.0, 3):
            out = evaluate(small_tree, strategy, float(v), d, d)
            assert out.surplus == pytest.approx(out.quantity * v - out.revenue,
                                                abs=1e-12)


def test_buyer_scale_invariance(small_tree):
    gb = DiscountSequence([1.0, 0.5])
    gs = DiscountSequence([1.0, 0.8])
    base = evaluate(small_tree, "11", 0.7, gb, gs)
    scaled = evaluate(small_tree, "11", 0.7, DiscountSequence([3.0, 1.5]), gs)
    assert scaled.surplus == pytest.approx(3.0 * base.surplus)
    assert scaled.quantity == pytest.approx(3.0 * base.quantity)
    assert scaled.revenue == pytest.approx(base.revenue)


def test_monotone_dominance_under_constant_tree():
    d = DiscountSequence([1.0, 0.5, 0.25])
    tree = PricingTree.constant(3, 0.4)
    smaller = evaluate(tree, "010", 1.0, d, d)
    larger = evaluate(tree, "011", 1.0, d, d)
    assert larger.quantity >= smaller.quantity


def test_strategy_parsing():
    s = BuyerStrategy.from_string("101")
    assert s.decisions == (1, 0, 1) and str(s) == "101" and len(s) == 3
    with pytest.raises(InvalidParameterError):
        BuyerStrategy.from_string("12")
    with pytest.raises(InvalidParameterError):
        BuyerStrategy(())


def test_evaluate_requires_finite_discounts():
    from postedprice import make_geometric_discount
    tree = PricingTree.constant(2, 0.5)
    inf = make_geometric_discount(0.5)
    fin = DiscountSequence([1.0, 0.5])
    with pytest.raises(InvalidParameterError, match="finite"):
        evaluate(tree, "11", 0.8, inf, fin)
