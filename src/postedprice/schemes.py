"""Closed-form pricing schemes and the finite truncation of infinite games.

Two schemes admit closed-form revenue: constant pricing at the one-shot
optimal price, and the "big deal" that charges the whole discounted value
up front (free goods after acceptance, prohibitive prices after
rejection).  Both take one finite game.  The infinite game reaches them,
and the solver, only through `truncate`: a tau-step pricing (price frozen
after round tau) is a pricing of the tau-round game with tail-aggregated
discounts, whose optimum sandwiches the true optimum within
`TruncatedGame.tail_bound`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .core import (DiscountSequence, PricingTree, _enumerable, _nonnegative,
                   _pointwise_leq, _positive_int, canonical_nodes, make_geometric_discount)
from .distributions import ValuationDistribution, myerson_price
from .errors import InvalidParameterError, PatienceOrderWarning

__all__ = [
    "TruncatedGame",
    "constant_myerson",
    "big_deal",
    "truncate",
]


@dataclass(frozen=True)
class TruncatedGame:
    """The tau-round stand-in for the infinite geometric game.

    The first tau-1 weights are kept; the tau-th absorbs the whole tail, so
    totals are preserved exactly.  `seller_tail` is the seller mass beyond
    round tau, which prices the approximation error of tau-step schemes.
    """

    buyer: DiscountSequence
    seller: DiscountSequence
    seller_tail: float

    def tail_bound(self, dist: ValuationDistribution) -> float:
        """Revenue the seller could at most collect after round tau."""
        return self.seller_tail * dist.mean


def _aggregate_tail(rate: float, tau: int) -> DiscountSequence:
    """The first tau-1 weights of the geometric discount `rate`, then its tail sum."""
    head = make_geometric_discount(rate, tau).weights[:-1]
    return DiscountSequence(head + (rate ** (tau - 1) / (1.0 - rate),))


def truncate(buyer_rate: float, seller_rate: float, tau: int) -> TruncatedGame:
    """The infinite game of two geometric rates as tail-aggregated tau-round
    discounts; a bad tau is refused before any weight is built."""
    tau = _enumerable(_positive_int(tau, "tau"), "tau")
    buyer_rate, seller_rate = (_nonnegative(r, "geometric rate") for r in (buyer_rate, seller_rate))
    return TruncatedGame(
        buyer=_aggregate_tail(buyer_rate, tau),
        seller=_aggregate_tail(seller_rate, tau),
        seller_tail=seller_rate ** tau / (1.0 - seller_rate),
    )


def constant_myerson(dist: ValuationDistribution,
                     seller_discount: DiscountSequence) -> tuple[PricingTree, float]:
    """Constant pricing at the one-shot optimal price, and its exact revenue.

    The truthful buyer accepts every round or none, so the expected revenue
    is Gamma^S * p * P[V >= p], maximized by the one-shot optimal price.
    """
    depth = _enumerable(len(seller_discount), "depth")
    p_star, h_star = myerson_price(dist)
    tree = PricingTree.constant(depth, p_star)
    return tree, seller_discount.total * h_star


def big_deal(dist: ValuationDistribution, buyer_discount: DiscountSequence,
             seller_discount: DiscountSequence) -> tuple[PricingTree, float]:
    """Pay-everything-up-front pricing, and its exact expected revenue.

    The first price charges the buyer's whole discounted value of the
    goods, Gamma^B * p_star / gamma^B_1; acceptance makes every later round
    free, rejection prices every later round prohibitively at
    2 gamma^B_1 p_1 / (Gamma^B - gamma^B_1).  The strategic buyer therefore
    accepts exactly when v > p_star, and the revenue collects entirely at
    round one: gamma^S_1 * p_1 * P[V >= p_star].

    For the infinite game, pass its `truncate`: tail aggregation preserves
    both totals, so the threshold analysis stays exact.  Optimality
    requires the seller to be the less patient side (seller weights
    pointwise below the buyer's); otherwise a `PatienceOrderWarning` is
    issued and the scheme is merely a valid pricing.
    """
    depth = _enumerable(len(buyer_discount), "depth")
    gb1 = buyer_discount.weights[0]
    total_b = buyer_discount.total
    if total_b <= gb1:
        raise InvalidParameterError("big deal needs a game of at least 2 rounds")
    if not _pointwise_leq(seller_discount, buyer_discount):
        warnings.warn(
            "seller discount is not pointwise below the buyer's; the big deal "
            "is a valid pricing but its optimality guarantee does not apply",
            PatienceOrderWarning, stacklevel=2)
    p_star, h_star = myerson_price(dist)
    first_price = total_b * p_star / gb1
    penalty = 2.0 * gb1 * first_price / (total_b - gb1)
    prices = {}
    for node in canonical_nodes(depth):
        if node == "":
            prices[node] = first_price
        elif node[0] == "1":
            prices[node] = 0.0
        else:
            prices[node] = penalty
    revenue = seller_discount.weights[0] * first_price * float(dist.sf(p_star))
    return PricingTree(depth, prices), revenue
