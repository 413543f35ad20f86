import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import postedprice
from postedprice import (DiscountSequence, InvalidParameterError, PricingTree,
                         ResourceLimitError, canonical_nodes, core, evaluate,
                         make_geometric_discount, price_path)


# ---------------------------------------------------------------------------
# discount sequences


def test_geometric_finite():
    d = make_geometric_discount(0.5, 2)
    assert d.weights == (1.0, 0.5)
    assert d.total == 1.5


def test_geometric_truncated_three_rounds():
    d = make_geometric_discount(0.8, 3)
    assert d.weights == pytest.approx((1.0, 0.8, 0.64))
    assert d.total == pytest.approx(2.44)


@pytest.mark.parametrize("rate", [0.0, 1.0, -0.2, 1.5, float("nan"), "0.5", True])
def test_geometric_rate_out_of_range(rate):
    with pytest.raises(InvalidParameterError, match="^geometric rate must"):
        make_geometric_discount(rate, 2)


def test_validate_examples():
    DiscountSequence((1, 0.5, 0.25))
    with pytest.raises(InvalidParameterError,
                       match=r"zero before positive weight at index 2$"):
        DiscountSequence((1, 0, 0.25))
    with pytest.raises(InvalidParameterError,
                       match=r"weight at index 1 must be finite and non-negative, got -0.1$"):
        DiscountSequence((1, -0.1))


def test_validate_more_rules():
    with pytest.raises(InvalidParameterError,
                       match=r"^invalid discount sequence: empty sequence$"):
        DiscountSequence(())
    with pytest.raises(InvalidParameterError,
                       match=r"first weight must be positive at index 0$"):
        DiscountSequence((0.0, 1.0))
    with pytest.raises(InvalidParameterError,
                       match=r"weight at index 1 must be finite and non-negative, got nan$"):
        DiscountSequence((1.0, float("nan")))
    DiscountSequence((1.0, 0.5, 0.0))  # trailing zeros are fine


@pytest.mark.parametrize("rate", [0.05, 0.3, 0.5, 0.77, 0.9, 0.995])
@pytest.mark.parametrize("horizon", [1, 2, 6, 20])
def test_finite_geometric_is_its_weights(rate, horizon):
    d = make_geometric_discount(rate, horizon)
    same = DiscountSequence([rate ** t for t in range(horizon)])
    assert d == same and hash(d) == hash(same)
    assert d.total == math.fsum(d.weights) == same.total
    assert eval(repr(d)) == d
    assert d != DiscountSequence(d.weights[:-1] + (d.weights[-1] * 0.5,))


def test_equal_discounts_hash_equal():
    assert len({make_geometric_discount(0.5, 3), DiscountSequence([1, 0.5, 0.25])}) == 1
    assert make_geometric_discount(0.5, 3) != make_geometric_discount(0.25, 3)
    assert make_geometric_discount(0.5, 1) != make_geometric_discount(0.5, 2)
    assert repr(make_geometric_discount(0.5, 2)) == "DiscountSequence([1.0, 0.5])"
    assert DiscountSequence.__slots__ == ("weights",)


def test_constructor_rejects_invalid_weights():
    with pytest.raises(InvalidParameterError):
        DiscountSequence([1.0, -0.1])
    with pytest.raises(InvalidParameterError):
        DiscountSequence([1.0, 0.0, 0.5])
    for bad in (True, "0.5", None, float("inf"), -float("inf"), float("nan"), -0.5,
                np.float32("inf")):
        with pytest.raises(InvalidParameterError, match="weight at index 1 must be"):
            DiscountSequence([1.0, bad])


def test_weight_and_len():
    d = DiscountSequence([1.0, 0.5, 0.25])
    assert len(d) == 3
    assert d.weights[0] == 1.0 and d.weights[2] == 0.25 and list(d) == [1.0, 0.5, 0.25]


@pytest.mark.parametrize("horizon", [0, 2.5, 2.0, "2", None, True, False])
def test_a_horizon_is_a_positive_integer(horizon):
    with pytest.raises(InvalidParameterError, match="horizon must be a positive integer"):
        make_geometric_discount(0.5, horizon)
    with pytest.raises(InvalidParameterError, match="horizon must be a positive integer"):
        PricingTree(horizon, {"": 0.5, "0": 0.5, "1": 0.5})


# ---------------------------------------------------------------------------
# pricing trees


def test_canonical_nodes():
    assert canonical_nodes(1) == [""]
    assert canonical_nodes(2) == ["", "0", "1"]
    assert canonical_nodes(3) == ["", "0", "1", "00", "01", "10", "11"]
    for horizon in (0, -3, True, 1.5):  # read by the one horizon rule
        with pytest.raises(InvalidParameterError, match="horizon must be a positive integer"):
            canonical_nodes(horizon)


def test_a_depth_above_the_enumeration_guard_is_refused_before_anything_is_built(monkeypatch):
    def no_nodes(*args):
        raise AssertionError("a node was built")
    monkeypatch.setattr(core, "_words", no_nodes)
    with pytest.raises(ResourceLimitError, match="horizon 1000000 exceeds the enumeration guard 20"):
        canonical_nodes(10**6)
    with pytest.raises(ResourceLimitError, match="horizon 40 exceeds the enumeration guard 20"):
        PricingTree.constant(40, 0.5)
    monkeypatch.setattr(core, "DiscountSequence", no_nodes)
    with pytest.raises(ResourceLimitError, match="horizon 1000000 exceeds the enumeration guard 20"):
        make_geometric_discount(0.5, 10**6)


def test_a_tree_equals_only_a_tree_and_shows_its_root():
    tree = PricingTree(2, {"": 0.6, "0": 0.3, "1": 0.9})
    assert tree != {"": 0.6, "0": 0.3, "1": 0.9} and tree.__eq__("tree") is NotImplemented
    assert repr(tree) == "PricingTree(horizon=2, root=0.6)"


def test_tree_completeness_enforced():
    with pytest.raises(InvalidParameterError):
        PricingTree(2, {"": 0.5, "0": 0.5})  # missing "1"
    with pytest.raises(InvalidParameterError):
        PricingTree(2, {"": 0.5, "0": 0.5, "1": 0.5, "00": 0.5})
    with pytest.raises(InvalidParameterError):
        PricingTree(2, {"": 0.5, "0": 0.5, "2": 0.5})
    with pytest.raises(InvalidParameterError):
        PricingTree(2, {"": 0.5, "0": -0.01, "1": 0.5})
    for prices in ([0.1, 0.2, 0.3], None):
        with pytest.raises(InvalidParameterError, match="prices must be a mapping of node to price"):
            PricingTree(2, prices)


def test_huge_tree_horizon_is_refused_without_building_2_to_the_T():
    with pytest.raises(InvalidParameterError, match=r"2\^T - 1"):
        PricingTree(14300, {})
    with pytest.raises(InvalidParameterError, match="tree JSON"):
        PricingTree.from_json_dict({"horizon": 10**6, "prices": {}})


def test_tree_zero_price_is_legal():
    tree = PricingTree(2, {"": 1.0, "0": 0.0, "1": 0.0})
    assert tree.price("0") == 0.0


def test_a_bool_is_neither_a_horizon_nor_a_price():
    with pytest.raises(InvalidParameterError, match="horizon must be a positive integer"):
        PricingTree(True, {"": 0.5})
    for price in ("0.5", True, float("nan"), 10**400, np.float32("inf"), np.float32("nan")):
        with pytest.raises(InvalidParameterError,
                           match="price at node '' must be finite and non-negative, got"):
            PricingTree(1, {"": price})
    with pytest.raises(InvalidParameterError, match="price at node '0'"):
        PricingTree(2, {"": 0.5, "0": True, "1": 0.5})
    assert PricingTree(1, {"": np.float64(0.5)}).price("") == 0.5


def test_a_numpy_float32_is_read_exactly_and_without_a_warning():
    assert PricingTree(1, {"": np.float32(0.3)}).price("") == float(np.float32(0.3))
    assert DiscountSequence([1, np.float32(0.5)]).weights == (1.0, 0.5)


def test_price_of_a_node_outside_the_tree():
    with pytest.raises(InvalidParameterError, match="no node '00' in a horizon-2 tree"):
        PricingTree.constant(2, 0.5).price("00")


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
    ({"horizon": True, "prices": {"": 0.5}}, "/horizon"),
    ({"horizon": 2, "prices": {"": 0.5, "0": 0.5, "1": False}}, "/prices/1"),
    ({"horizon": 2, "prices": [0.5, 0.5, 0.5]}, "'/prices' must be an object"),
])
def test_tree_json_schema_errors(obj, fragment):
    with pytest.raises(InvalidParameterError, match="tree JSON") as info:
        PricingTree.from_json_dict(obj)
    assert fragment in str(info.value)


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


@pytest.mark.parametrize("strategy", [(1, 0), "1x"])
def test_price_path_rejects_a_strategy_that_is_not_a_binary_string(small_tree, strategy):
    with pytest.raises(InvalidParameterError, match="'0'/'1' string"):
        price_path(small_tree, strategy)


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
    d = DiscountSequence([1.0, 0.5, 0.25])
    tree = PricingTree.constant(3, 0.4)
    out = evaluate(tree, "101", 1.0, d, d)
    assert out.strategy == "101" and str(out.strategy) == "101"
    assert out.quantity == 1.25
    for bad in ("12", "", (1, 0, 1)):
        with pytest.raises(InvalidParameterError):
            evaluate(tree, bad, 1.0, d, d)


def test_evaluate_requires_finite_discounts():
    # a discount is finite by type; one of the wrong length is refused
    tree = PricingTree.constant(2, 0.5)
    fin = DiscountSequence([1.0, 0.5])
    longer = DiscountSequence([1.0, 0.5, 0.25])
    with pytest.raises(InvalidParameterError, match="must have length 2"):
        evaluate(tree, "11", 0.8, longer, fin)
    with pytest.raises(InvalidParameterError, match="must have length 2"):
        evaluate(tree, "11", 0.8, fin, longer)


# ---------------------------------------------------------------------------
# public names


@pytest.mark.parametrize("module", ["postedprice"] + [
    f"postedprice.{info.name}" for info in pkgutil.iter_modules(postedprice.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    assert len(set(exported)) == len(exported)


def test_the_package_exports_its_modules_public_names():
    modules = (postedprice.core, postedprice.distributions, postedprice.errors,
               postedprice.optimizer, postedprice.oracle, postedprice.reduction,
               postedprice.schemes)
    assert postedprice.__all__ == [name for module in modules for name in module.__all__]
    for name in ("maximize_bilinear", "envelope_breakpoints", "StrategyTables", "StrategyOrder"):
        assert name in postedprice.__all__
