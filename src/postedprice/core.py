"""Core types and arithmetic for repeated posted-price games.

A game between a seller and a single buyer runs for T rounds.  Each round
the seller posts a price and the buyer accepts (1) or rejects (0).  The
seller's price at round t may depend on the decisions made in rounds
1..t-1, so a deterministic pricing algorithm is a complete binary tree of
prices indexed by decision histories.  Both sides weight per-round utility
by their own discount sequence.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError

__all__ = [
    "DiscountSequence",
    "PricingTree",
    "GameOutcome",
    "make_geometric_discount",
    "discount_rates",
    "rate_order_satisfied",
    "price_path",
    "evaluate",
    "canonical_nodes",
]

MAX_ENUM_HORIZON = 20
ORDER_TOL = 1e-12  # slack of the patience comparisons, relative to the right-hand side
_REALS = (int, float, np.integer, np.floating)  # built once: `_nonnegative` is hot


# ---------------------------------------------------------------------------
# Input rules


def _positive_int(n, what: str = "horizon") -> int:
    """`n`, which must be a positive integer: 2.5, 3.0 and True are refused."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidParameterError(f"{what} must be a positive integer")
    return int(n)


def _nonnegative(x, what: str) -> float:
    """`x` as a float, which must be a finite real >= 0: a bool, a str, NaN
    and +-inf are refused."""
    if (isinstance(x, _REALS) and not isinstance(x, bool) and 0 <= x
            # an int compares exactly with the float range, where float(x) may
            # overflow; a NumPy float32 may not, as the bound overflows its cast
            and (x <= sys.float_info.max if isinstance(x, int) else math.isfinite(x))):
        return float(x)
    raise InvalidParameterError(f"{what} must be finite and non-negative, got {x!r}")


# ---------------------------------------------------------------------------
# Discount sequences


def _check_weights(weights: tuple[float, ...]) -> None:
    """Raise unless the weights form a valid discount sequence.

    The weights have passed `_nonnegative`.  The first weight must be
    positive, and no zero may appear before a positive weight.  The message
    names the first violated rule and its index.
    """
    if not weights:
        raise InvalidParameterError("invalid discount sequence: empty sequence")
    seen_zero = False
    for i, w in enumerate(weights):
        if w == 0 and i == 0:
            reason = "first weight must be positive"
        elif w > 0 and seen_zero:
            reason = "zero before positive weight"
        else:
            seen_zero = seen_zero or w == 0
            continue
        raise InvalidParameterError(f"invalid discount sequence: {reason} at index {i}")


class DiscountSequence:
    """Per-round utility weights gamma_t for one side of a finite game.

    A discount sequence is its tuple of weights, and `len(d)` is its
    horizon.  The infinite geometric game is not a sequence: it is a rate,
    which `schemes.truncate` turns into a finite game.  Instances are
    immutable.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Sequence[float]):
        weights = tuple(_nonnegative(x, f"invalid discount sequence: weight at index {i}")
                        for i, x in enumerate(weights))
        _check_weights(weights)
        self._weights = weights

    @property
    def weights(self) -> tuple[float, ...]:
        return self._weights

    @property
    def total(self) -> float:
        """The sum Gamma of all weights."""
        return math.fsum(self._weights)

    def as_array(self) -> np.ndarray:
        return np.asarray(self._weights, dtype=float)

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[float]:
        return iter(self._weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscountSequence):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self):
        return hash(self._weights)

    def __repr__(self) -> str:
        return f"DiscountSequence({list(self._weights)!r})"


def _finite_weights(discount: DiscountSequence, horizon: int) -> np.ndarray:
    """The weights of a discount, which must have `horizon` rounds."""
    if len(discount) != horizon:
        raise InvalidParameterError(f"discount must have length {horizon}")
    return discount.as_array()


def make_geometric_discount(rate: float, horizon: int) -> DiscountSequence:
    """Geometric discount gamma_t = rate**(t-1) over `horizon` rounds."""
    rate = _nonnegative(rate, "geometric rate")
    if not 0.0 < rate < 1.0:
        raise InvalidParameterError("geometric rate must lie in (0, 1)")
    return DiscountSequence([rate ** t for t in range(_positive_int(horizon))])


def discount_rates(discount: DiscountSequence) -> tuple[float, ...]:
    """Per-round rates nu_t = gamma_{t+1} / gamma_t (0 where gamma_t = 0)."""
    w = discount.weights
    return tuple(w[t + 1] / w[t] if w[t] > 0 else 0.0 for t in range(len(w) - 1))


def _pointwise_leq(a: DiscountSequence, b: DiscountSequence, per_round=tuple) -> bool:
    """Whether per_round(a)_t <= per_round(b)_t, up to `ORDER_TOL` times
    |per_round(b)_t|, at every round of one finite game; `per_round` defaults
    to the weights, so the answer does not depend on their unit."""
    _finite_weights(b, len(a))
    return all(x <= y + ORDER_TOL * abs(y) for x, y in zip(per_round(a), per_round(b)))


def rate_order_satisfied(buyer_discount: DiscountSequence,
                         seller_discount: DiscountSequence) -> bool:
    """Whether nu(buyer) <= nu(seller) holds at every round, up to `ORDER_TOL` relative.

    This is the hypothesis under which searching Delta^k is guaranteed to
    find a globally optimal pricing.  Both discounts are one finite game's;
    an infinite game is compared through its `truncate`.
    """
    return _pointwise_leq(buyer_discount, seller_discount, discount_rates)


# ---------------------------------------------------------------------------
# Pricing trees and buyer strategies


def _words(values, length: int) -> tuple[str, ...]:
    """The `length`-digit binary words of `values`: word j of length T is the
    strategy in row j of `strategy_bits(T)`, of length t < T a node."""
    return tuple(format(j, f"0{length}b") for j in values)


def _enumerable(depth: int, what: str) -> int:
    """`depth`, refused above `MAX_ENUM_HORIZON` before anything is built."""
    if depth > MAX_ENUM_HORIZON:
        raise ResourceLimitError(
            f"{what} {depth} exceeds the enumeration guard {MAX_ENUM_HORIZON}")
    return depth


def strategy_bits(horizon: int) -> np.ndarray:
    """All strategies of a T-round game as a (2^T, T) bit matrix, binary order."""
    m = 2 ** _enumerable(horizon, "horizon")
    shifts = np.arange(horizon - 1, -1, -1)
    return ((np.arange(m)[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def _pricing_nodes(bits: np.ndarray) -> np.ndarray:
    """Node that prices round t of each strategy row of a (m, T) bit matrix.

    Entry (i, t) is 2^t - 1 + int(a_1..a_{t-1}, 2): the position of node
    a_1..a_{t-1} in `canonical_nodes`, which lists nodes by depth, then value.
    """
    T = bits.shape[1]
    shift = np.arange(T)[None, :] - np.arange(T)[:, None] - 1  # (s, t) -> t-1-s
    prefix = np.where(shift >= 0, 1 << np.maximum(shift, 0), 0)
    return (1 << np.arange(T)) - 1 + bits @ prefix


def _payment_matrix(bits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """K with K @ prices = discounted payments, one row per strategy in `bits`.

    Columns are the nodes in `canonical_nodes` order; entry (i, j) is
    weights[t] * a^i_t when node j prices round t on a^i's path, else 0.
    """
    m, T = bits.shape
    K = np.zeros((m, 2 ** T - 1))
    np.put_along_axis(K, _pricing_nodes(bits), bits * weights, axis=1)
    return K


def canonical_nodes(horizon: int) -> list[str]:
    """All node identifiers of a depth-`horizon` tree, by depth then value."""
    out = [""]
    for depth in range(1, horizon):
        out.extend(_words(range(2 ** depth), depth))
    return out


class PricingTree:
    """Complete binary tree of prices for a T-round game.

    Node identifiers are the buyer's decision histories: binary strings over
    {'0','1'} of length < T, the root being the empty string.  Rejecting at a
    node moves to node + '0', accepting to node + '1'.  Every price is
    non-negative; zero prices are legal.
    """

    __slots__ = ("_horizon", "_prices")

    def __init__(self, horizon: int, prices: Mapping[str, float]):
        horizon = _positive_int(horizon)
        # 2^T - 1 has T bits: compare those first, so a huge T builds no 2^T
        if len(prices).bit_length() != horizon or len(prices) != 2 ** horizon - 1:
            raise InvalidParameterError(
                f"expected 2^T - 1 node prices for horizon T = {horizon}, "
                f"got {len(prices)}")
        clean: dict[str, float] = {}
        for node, price in prices.items():
            if not isinstance(node, str) or len(node) >= horizon or set(node) - {"0", "1"}:
                raise InvalidParameterError(f"invalid node identifier {node!r}")
            clean[node] = _nonnegative(price, f"price at node {node!r}")
        # count + per-key validity + dict uniqueness imply the node set is complete
        self._horizon = horizon
        self._prices = {node: clean[node] for node in canonical_nodes(horizon)}

    @classmethod
    def constant(cls, horizon: int, price: float) -> "PricingTree":
        """Tree offering the same price at every node."""
        return cls(horizon, {n: price for n in canonical_nodes(horizon)})

    @property
    def horizon(self) -> int:
        return self._horizon

    def price(self, node: str) -> float:
        try:
            return self._prices[node]
        except KeyError:
            raise InvalidParameterError(f"no node {node!r} in a horizon-{self._horizon} tree") from None

    def prices(self) -> dict[str, float]:
        """Copy of the node -> price map, in canonical (depth, value) order."""
        return dict(self._prices)

    def to_json_dict(self) -> dict:
        return {"horizon": self._horizon, "prices": dict(self._prices)}

    @classmethod
    def from_json_dict(cls, obj) -> "PricingTree":
        """Parse the shared tree schema; errors carry a JSON-pointer-like path."""
        if not isinstance(obj, dict):
            raise InvalidParameterError("tree JSON: expected an object at ''")
        if "horizon" not in obj:
            raise InvalidParameterError("tree JSON: missing key at '/horizon'")
        if "prices" not in obj:
            raise InvalidParameterError("tree JSON: missing key at '/prices'")
        horizon = _positive_int(obj["horizon"], "tree JSON: '/horizon'")
        prices = obj["prices"]
        if not isinstance(prices, dict):
            raise InvalidParameterError("tree JSON: '/prices' must be an object")
        for node, price in prices.items():
            _nonnegative(price, f"tree JSON: '/prices/{node}'")
        try:
            return cls(horizon, prices)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"tree JSON: '/prices' invalid: {exc}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PricingTree):
            return NotImplemented
        return self._horizon == other._horizon and self._prices == other._prices

    def __repr__(self) -> str:
        root = self._prices[""]
        return f"PricingTree(horizon={self._horizon}, root={root:g})"


@dataclass(frozen=True, slots=True)
class GameOutcome:
    """Discounted totals of one play-through: a strategy against a tree.

    `surplus` and `quantity` are in buyer units (weighted by the buyer's
    discount), `revenue` in seller units.  For equal discounts the identity
    surplus == quantity * v - revenue holds exactly.
    """

    strategy: str
    surplus: float
    revenue: float
    quantity: float


# ---------------------------------------------------------------------------
# Game arithmetic


def price_path(tree: PricingTree, strategy: str) -> np.ndarray:
    """Prices consecutively offered along a strategy's decision path.

    The strategy is a '0'/'1' string with one decision per round.  Element t
    is the tree's price at node a_1..a_{t-1}; prices are offered (and
    recorded) whether or not the buyer accepts them.
    """
    T = tree.horizon
    if not isinstance(strategy, str) or len(strategy) != T or set(strategy) - {"0", "1"}:
        raise InvalidParameterError(
            f"strategy must be a '0'/'1' string of length {T}, got {strategy!r}")
    return np.array([tree.price(strategy[:t]) for t in range(T)])


def evaluate(tree: PricingTree, strategy: str, v: float,
             buyer_discount: DiscountSequence,
             seller_discount: DiscountSequence) -> GameOutcome:
    """Play a strategy against a tree at valuation v and total the utilities.

    surplus  = sum_t gammaB_t a_t (v - p_t)
    revenue  = sum_t gammaS_t a_t p_t
    quantity = sum_t gammaB_t a_t
    """
    v = _nonnegative(v, "valuation")
    p = price_path(tree, strategy)  # refuses a malformed strategy
    gb = _finite_weights(buyer_discount, tree.horizon)
    gs = _finite_weights(seller_discount, tree.horizon)
    a = np.array([int(c) for c in strategy], dtype=float)
    surplus = float(np.dot(gb * a, v - p))
    revenue = float(np.dot(gs * a, p))
    quantity = float(np.dot(gb, a))
    return GameOutcome(strategy=strategy, surplus=surplus, revenue=revenue,
                       quantity=quantity)
