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
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "DiscountSequence",
    "PricingTree",
    "BuyerStrategy",
    "GameOutcome",
    "make_geometric_discount",
    "price_path",
    "evaluate",
    "canonical_nodes",
]


# ---------------------------------------------------------------------------
# Discount sequences


def _check_weights(weights: tuple[float, ...]) -> None:
    """Raise unless the weights form a valid discount sequence.

    Weights must be finite and non-negative, the first weight must be
    positive, and no zero may appear before a positive weight.  The message
    names the first violated rule and its index.
    """
    if not weights:
        raise InvalidParameterError("invalid discount sequence: empty sequence")
    seen_zero = False
    for i, w in enumerate(weights):
        if not math.isfinite(w):
            reason = "non-finite weight"
        elif w < 0:
            reason = "negative weight"
        elif w == 0 and i == 0:
            reason = "first weight must be positive"
        elif w > 0 and seen_zero:
            reason = "zero before positive weight"
        else:
            seen_zero = seen_zero or w == 0
            continue
        raise InvalidParameterError(f"invalid discount sequence: {reason} at index {i}")


class DiscountSequence:
    """Per-round utility weights gamma_t for one side of the game.

    A finite sequence is its tuple of weights, given explicitly or built
    from a geometric `rate` and `horizon`.  A geometric rate without a
    horizon stands for the infinite game: it keeps only the rate, and its
    total and tail sums are in closed form.  Instances are immutable.
    """

    __slots__ = ("_weights", "_rate")

    def __init__(self, weights: Sequence[float] | None = None, *,
                 rate: float | None = None, horizon: int | None = None):
        if (weights is None) == (rate is None):
            raise InvalidParameterError(
                "pass either explicit weights or a geometric rate, not both")
        if weights is not None:
            weights = tuple(float(x) for x in weights)
            if horizon is not None and horizon != len(weights):
                raise InvalidParameterError("horizon does not match weights length")
            _check_weights(weights)
        else:
            rate = float(rate)
            if not 0.0 < rate < 1.0:
                raise InvalidParameterError("geometric rate must lie in (0, 1)")
            if horizon is not None:
                horizon = int(horizon)
                if horizon < 1:
                    raise InvalidParameterError("horizon must be a positive integer")
                weights, rate = tuple(rate ** t for t in range(horizon)), None
        self._weights, self._rate = weights, rate

    @property
    def horizon(self) -> int | None:
        """Number of rounds, or None for the infinite game."""
        return None if self._weights is None else len(self._weights)

    @property
    def is_finite(self) -> bool:
        return self._weights is not None

    @property
    def weights(self) -> tuple[float, ...]:
        if self._weights is None:
            raise InvalidParameterError(
                "infinite discount sequence has no materialized weights; "
                "truncate it first")
        return self._weights

    @property
    def total(self) -> float:
        """The sum Gamma of all weights."""
        return self.tail_sum(1)

    def weight(self, t: int) -> float:
        """Weight of round t (1-based)."""
        if t < 1:
            raise InvalidParameterError("rounds are 1-based")
        if self._weights is None:
            return self._rate ** (t - 1)
        return self._weights[t - 1] if t <= len(self._weights) else 0.0

    def tail_sum(self, start: int) -> float:
        """Sum of weights from round `start` (1-based) onward: the `fsum` of
        the stored weights, or the closed form for the infinite game."""
        if start < 1:
            raise InvalidParameterError("rounds are 1-based")
        if self._weights is None:
            return self._rate ** (start - 1) / (1.0 - self._rate)
        return math.fsum(self._weights[start - 1:])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def __len__(self) -> int:
        if self._weights is None:
            raise TypeError("infinite discount sequence has no length")
        return len(self._weights)

    def __iter__(self) -> Iterator[float]:
        return iter(self.weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscountSequence):
            return NotImplemented
        return (self._weights, self._rate) == (other._weights, other._rate)

    def __hash__(self):
        return hash((self._weights, self._rate))

    def __repr__(self) -> str:
        arg = repr(list(self._weights)) if self._rate is None else f"rate={self._rate!r}"
        return f"DiscountSequence({arg})"


def _finite_weights(discount: DiscountSequence, horizon: int | None) -> np.ndarray:
    """The weights of a finite discount, which must have `horizon` rounds if given."""
    if horizon is not None and (not discount.is_finite or len(discount) != horizon):
        raise InvalidParameterError(f"discount must be finite with length {horizon}")
    return discount.as_array()


def make_geometric_discount(rate: float, horizon=None) -> DiscountSequence:
    """Geometric discount gamma_t = rate**(t-1).

    `horizon` is a positive integer for the finite game, whose weights are
    stored, or None / math.inf for the infinite one, which keeps the rate.
    """
    if horizon is not None and horizon == math.inf:
        horizon = None
    return DiscountSequence(rate=rate, horizon=horizon)


# ---------------------------------------------------------------------------
# Pricing trees and buyer strategies


def canonical_nodes(horizon: int) -> list[str]:
    """All node identifiers of a depth-`horizon` tree, by depth then value."""
    out = [""]
    for depth in range(1, horizon):
        out.extend(format(i, f"0{depth}b") for i in range(2 ** depth))
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
        horizon = int(horizon)
        if horizon < 1:
            raise InvalidParameterError("horizon must be a positive integer")
        expected = 2 ** horizon - 1
        if len(prices) != expected:
            raise InvalidParameterError(
                f"expected {expected} node prices for horizon {horizon}, got {len(prices)}")
        clean: dict[str, float] = {}
        for node, price in prices.items():
            if not isinstance(node, str) or len(node) >= horizon or set(node) - {"0", "1"}:
                raise InvalidParameterError(f"invalid node identifier {node!r}")
            p = float(price)
            if not math.isfinite(p) or p < 0:
                raise InvalidParameterError(f"price at node {node!r} must be finite and >= 0")
            clean[node] = p
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

    @property
    def node_count(self) -> int:
        return 2 ** self._horizon - 1

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
        horizon = obj["horizon"]
        if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
            raise InvalidParameterError("tree JSON: '/horizon' must be a positive integer")
        prices = obj["prices"]
        if not isinstance(prices, dict):
            raise InvalidParameterError("tree JSON: '/prices' must be an object")
        for node, price in prices.items():
            if not isinstance(price, (int, float)) or isinstance(price, bool):
                raise InvalidParameterError(f"tree JSON: '/prices/{node}' must be a number")
            if price < 0:
                raise InvalidParameterError(f"tree JSON: '/prices/{node}' must be >= 0")
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


@dataclass(frozen=True)
class BuyerStrategy:
    """A buyer's full plan of accept/reject decisions, one bit per round."""

    decisions: tuple[int, ...]

    def __post_init__(self):
        if not self.decisions:
            raise InvalidParameterError("strategy must cover at least one round")
        if any(d not in (0, 1) for d in self.decisions):
            raise InvalidParameterError("strategy decisions must be 0 or 1")

    @classmethod
    def from_string(cls, s: str) -> "BuyerStrategy":
        if set(s) - {"0", "1"}:
            raise InvalidParameterError(f"strategy string must be over {{'0','1'}}, got {s!r}")
        return cls(tuple(int(c) for c in s))

    @property
    def horizon(self) -> int:
        return len(self.decisions)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.decisions, dtype=float)

    def __len__(self) -> int:
        return len(self.decisions)

    def __str__(self) -> str:
        return "".join(str(d) for d in self.decisions)


StrategyLike = Union[BuyerStrategy, str, Sequence[int]]


def as_strategy(strategy: StrategyLike, horizon: int | None = None) -> BuyerStrategy:
    """Coerce a strategy given as BuyerStrategy, '0101' string, or bit sequence."""
    if isinstance(strategy, BuyerStrategy):
        out = strategy
    elif isinstance(strategy, str):
        out = BuyerStrategy.from_string(strategy)
    else:
        out = BuyerStrategy(tuple(int(b) for b in strategy))
    if horizon is not None and out.horizon != horizon:
        raise InvalidParameterError(
            f"strategy length {out.horizon} does not match horizon {horizon}")
    return out


@dataclass(frozen=True)
class GameOutcome:
    """Discounted totals of one play-through: a strategy against a tree.

    `surplus` and `quantity` are in buyer units (weighted by the buyer's
    discount), `revenue` in seller units.  For equal discounts the identity
    surplus == quantity * v - revenue holds exactly.
    """

    strategy: BuyerStrategy
    surplus: float
    revenue: float
    quantity: float


# ---------------------------------------------------------------------------
# Game arithmetic


def price_path(tree: PricingTree, strategy: StrategyLike) -> np.ndarray:
    """Prices consecutively offered along a strategy's decision path.

    Element t is the tree's price at node a_1..a_{t-1}; prices are offered
    (and recorded) whether or not the buyer accepts them.
    """
    s = as_strategy(strategy, tree.horizon)
    node = ""
    out = np.empty(tree.horizon)
    for t, decision in enumerate(s.decisions):
        out[t] = tree.price(node)
        node += "1" if decision else "0"
    return out


def evaluate(tree: PricingTree, strategy: StrategyLike, v: float,
             buyer_discount: DiscountSequence,
             seller_discount: DiscountSequence) -> GameOutcome:
    """Play a strategy against a tree at valuation v and total the utilities.

    surplus  = sum_t gammaB_t a_t (v - p_t)
    revenue  = sum_t gammaS_t a_t p_t
    quantity = sum_t gammaB_t a_t
    """
    if v < 0:
        raise InvalidParameterError("valuation must be non-negative")
    s = as_strategy(strategy, tree.horizon)
    gb = _finite_weights(buyer_discount, tree.horizon)
    gs = _finite_weights(seller_discount, tree.horizon)
    a = s.as_array()
    p = price_path(tree, s)
    surplus = float(np.dot(gb * a, v - p))
    revenue = float(np.dot(gs * a, p))
    quantity = float(np.dot(gb, a))
    return GameOutcome(strategy=s, surplus=surplus, revenue=revenue, quantity=quantity)
