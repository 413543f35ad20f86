"""Closed-form pricing schemes and the finite truncation of infinite games.

Two schemes admit closed-form revenue: constant pricing at the one-shot
optimal price, and the "big deal" that charges the whole discounted value
up front (free goods after acceptance, prohibitive prices after
rejection).  Infinite games are approached through tau-step pricings,
whose optimum is the optimum of a tau-round game with tail-aggregated
discounts and sandwiches the true optimum within an explicit tail bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .core import DiscountSequence, PricingTree, canonical_nodes
from .distributions import ValuationDistribution, myerson_price
from .errors import InvalidParameterError, ResourceLimitError
from .optimizer import OptimizationResult, _pointwise_leq, maximize_L
from .oracle import MAX_ENUM_HORIZON

__all__ = [
    "TruncatedGame",
    "TauStepResult",
    "PatienceOrderWarning",
    "constant_myerson",
    "big_deal",
    "truncate",
    "tau_step_optimal",
]


class PatienceOrderWarning(UserWarning):
    """The discounts do not satisfy the hypothesis of the scheme's optimality."""


@dataclass(frozen=True)
class TruncatedGame:
    """A tau-round stand-in for a longer (possibly infinite) game.

    The first tau-1 weights are kept; the tau-th absorbs the whole tail, so
    totals are preserved exactly.  `seller_tail` is the seller mass beyond
    round tau, which prices the approximation error of tau-step schemes.
    """

    tau: int
    buyer: DiscountSequence
    seller: DiscountSequence
    seller_tail: float

    def tail_bound(self, dist: ValuationDistribution) -> float:
        """Revenue the seller could at most collect after round tau."""
        return self.seller_tail * dist.mean


def _aggregate_tail(discount: DiscountSequence, tau: int) -> DiscountSequence:
    if tau > MAX_ENUM_HORIZON:
        raise ResourceLimitError(f"tau {tau} exceeds the enumeration guard {MAX_ENUM_HORIZON}")
    if discount.is_finite and len(discount) < tau:
        raise InvalidParameterError(
            f"cannot truncate a length-{len(discount)} discount at tau={tau}")
    head = [discount.weight(t) for t in range(1, tau)]
    return DiscountSequence(head + [discount.tail_sum(tau)])


def truncate(buyer_discount: DiscountSequence, seller_discount: DiscountSequence,
             tau: int) -> TruncatedGame:
    """Tail-aggregated tau-round discounts for both sides."""
    if tau < 1:
        raise InvalidParameterError("tau must be a positive integer")
    return TruncatedGame(
        tau=tau,
        buyer=_aggregate_tail(buyer_discount, tau),
        seller=_aggregate_tail(seller_discount, tau),
        seller_tail=seller_discount.tail_sum(tau + 1),
    )


def _materialization_depth(depth, *discounts) -> int:
    """`depth`, else the horizon the finite discounts share, else 1; a tree
    of more levels than the enumeration guard allows is refused."""
    if depth is None:
        finite = [d.horizon for d in discounts if d.is_finite]
        if len(set(finite)) > 1:
            raise InvalidParameterError("finite discounts must share one horizon")
        depth = finite[0] if finite else 1
    depth = int(depth)
    if depth < 1:
        raise InvalidParameterError("depth must be a positive integer")
    if depth > MAX_ENUM_HORIZON:
        raise ResourceLimitError(f"depth {depth} exceeds the enumeration guard "
                                 f"{MAX_ENUM_HORIZON} (2^{depth} - 1 tree nodes)")
    return depth


def constant_myerson(dist: ValuationDistribution, seller_discount: DiscountSequence,
                     horizon: int | None = None) -> tuple[PricingTree, float]:
    """Constant pricing at the one-shot optimal price, and its exact revenue.

    The truthful buyer accepts every round or none, so the expected revenue
    is Gamma^S * p * P[V >= p], maximized by the one-shot optimal price.
    The tree is materialized at `horizon` (a constant tree behaves the same
    at any depth); revenue always uses the exact total Gamma^S.
    """
    depth = _materialization_depth(horizon, seller_discount)
    p_star, h_star = myerson_price(dist)
    tree = PricingTree.constant(depth, p_star)
    return tree, seller_discount.total * h_star


def big_deal(dist: ValuationDistribution, buyer_discount: DiscountSequence,
             seller_discount: DiscountSequence,
             tau: int | None = None) -> tuple[PricingTree, float]:
    """Pay-everything-up-front pricing, and its exact expected revenue.

    The first price charges the buyer's whole discounted value of the
    goods, Gamma^B * p_star / gamma^B_1; acceptance makes every later round
    free, rejection prices every later round prohibitively at
    2 gamma^B_1 p_1 / (Gamma^B - gamma^B_1).  The strategic buyer therefore
    accepts exactly when v > p_star, and the revenue collects entirely at
    round one: gamma^S_1 * p_1 * P[V >= p_star].

    Infinite discounts are materialized at depth `tau` with tail-aggregated
    weights, which leaves the threshold analysis exact because totals are
    preserved.  Optimality requires the seller to be the less patient side
    (seller weights pointwise below the buyer's); otherwise a warning is
    issued and the scheme is merely a valid pricing.
    """
    gb1 = buyer_discount.weight(1)
    total_b = buyer_discount.total
    if total_b <= gb1:
        raise InvalidParameterError("big deal needs a game of at least 2 rounds")
    if not _pointwise_leq(seller_discount, buyer_discount):
        warnings.warn(
            "seller discount is not pointwise below the buyer's; the big deal "
            "is a valid pricing but its optimality guarantee does not apply",
            PatienceOrderWarning, stacklevel=2)
    depth = _materialization_depth(tau, buyer_discount, seller_discount)
    if depth < 2:
        raise InvalidParameterError(
            "pass tau >= 2 to materialize the big deal for infinite discounts")
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
    revenue = seller_discount.weight(1) * first_price * float(dist.sf(p_star))
    return PricingTree(depth, prices), revenue


@dataclass(frozen=True)
class TauStepResult:
    """Optimal tau-step pricing with the sandwich around the true optimum."""

    tree: PricingTree
    value: float
    opt_lower: float
    opt_upper: float
    optimization: OptimizationResult


def tau_step_optimal(dist: ValuationDistribution, buyer_discount: DiscountSequence,
                     seller_discount: DiscountSequence, tau: int,
                     **opts) -> TauStepResult:
    """Best pricing that freezes its price after round tau.

    Equivalent to the tau-round game with tail-aggregated discounts, which
    the cone reduction solves.  The achieved value lower-bounds the true
    (unrestricted) optimum, and exceeding it by the post-tau seller mass
    times E[V] upper-bounds it.
    """
    game = truncate(buyer_discount, seller_discount, tau)
    result = maximize_L(dist, game.buyer, game.seller, tau, **opts)
    bound = game.tail_bound(dist)
    return TauStepResult(tree=result.tree, value=result.value,
                         opt_lower=result.value, opt_upper=result.value + bound,
                         optimization=result)
