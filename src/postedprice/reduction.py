"""Reduction of optimal dynamic pricing to maximization over an ordered cone.

For a T-round game with a regular buyer discount, the completely active
pricing trees are in linear bijection with the cone
Delta^k = {0 <= v_1 <= ... <= v_k}, k = 2^T - 1, where v_j is the valuation
at which the buyer is indifferent between the j-th and (j-1)-th strategy in
the quantity order.  On that cone the expected strategic revenue is the
bilinear form L(v) = (1 - F(v))' Xi v, a multivariate analogue of the
one-shot revenue curve p (1 - F(p)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (DiscountSequence, PricingTree, _finite_weights, _nonnegative,
                   _payment_matrix, _pricing_nodes, _words, canonical_nodes, strategy_bits)
from .distributions import ValuationDistribution
from .errors import InvalidParameterError, RegularityError, ResourceLimitError

__all__ = [
    "StrategyOrder",
    "ReductionSystem",
    "order_strategies",
    "build_system",
    "tree_to_v",
    "v_to_tree",
    "L_value",
    "L_gradient",
    "L_hessian",
    "reduced_T2_functional",
]

QUANTITY_COLLISION_TOL = 1e-12  # relative to Gamma^B
CONE_ORDER_TOL = 1e-9  # v_to_tree's cone slack, relative to ||v||_1
MAX_SYSTEM_HORIZON = 6  # k = 63: Xi measured within 1.3e-15 max|Xi| of its exact kernel


@functools.lru_cache(maxsize=MAX_SYSTEM_HORIZON)
def _layout(horizon: int) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """What depends only on the horizon, built once and read-only: `strategy_bits`,
    its `_pricing_nodes` and the `canonical_nodes` names.  Only the solver's horizons reach it."""
    bits = strategy_bits(horizon)
    nodes = _pricing_nodes(bits)
    bits.flags.writeable = nodes.flags.writeable = False
    return bits, nodes, tuple(canonical_nodes(horizon))


def _strategy_bits(horizon: int) -> np.ndarray:  # read from `_layout` at the solver's horizons
    return _layout(horizon)[0] if horizon <= MAX_SYSTEM_HORIZON else strategy_bits(horizon)


@dataclass(frozen=True)
class StrategyOrder:
    """All 2^T strategies sorted by ascending discounted quantity.

    Index 0 is always the all-reject strategy (quantity 0) and index k the
    all-accept one (quantity Gamma^B).
    """

    horizon: int
    index: np.ndarray       # (2^T,), strategy a^j is row index[j] of strategy_bits
    quantities: np.ndarray  # (2^T,), strictly increasing

    @property
    def bits(self) -> np.ndarray:
        """(2^T, T) bit matrix whose row j is strategy a^j."""
        return _strategy_bits(self.horizon)[self.index]

    @property
    def strategies(self) -> tuple[str, ...]:
        return _words(self.index.tolist(), self.horizon)

    @property
    def k(self) -> int:
        return len(self.index) - 1


def order_strategies(buyer_discount: DiscountSequence) -> StrategyOrder:
    """Sort strategies by buyer-discounted quantity; requires regularity.

    Regularity means every strategy yields a distinct discounted quantity.
    Two quantities collide when they differ by at most
    `QUANTITY_COLLISION_TOL` times the largest one, Gamma^B; the
    `RegularityError` then names the pair.
    """
    w = buyer_discount.as_array()
    bits = _strategy_bits(len(w))
    quantities = bits.astype(float) @ w
    idx = np.argsort(quantities, kind="stable")
    order = StrategyOrder(horizon=len(w), index=idx, quantities=quantities[idx])
    gaps = order.quantities[1:] - order.quantities[:-1]
    j = int(gaps.argmin())
    if gaps[j] <= QUANTITY_COLLISION_TOL * order.quantities[-1]:
        pair = order.strategies[j:j + 2]
        raise RegularityError(
            f"buyer discount is not regular: strategies {pair[0]} and "
            f"{pair[1]} share the discounted quantity (gap {gaps[j]:.3g})",
            pair=pair)
    return order


@dataclass(frozen=True, eq=False)
class ReductionSystem:
    """The matrices tying completely active trees to the cone Delta^k.

    W maps a tree's price vector (in `canonical_nodes` order) to the vector
    of surplus-line intersection abscissas, W_inv maps back; Xi defines the
    revenue form L(v) = (1 - F(v))' Xi v.  Built by `build_system`.
    """

    order: StrategyOrder
    W: np.ndarray
    W_inv: np.ndarray
    Xi: np.ndarray

    @property
    def horizon(self) -> int:
        return self.order.horizon

    @property
    def k(self) -> int:
        return self.order.k

    def __repr__(self) -> str:
        return f"ReductionSystem(T={self.horizon}, k={self.k})"


# `cli` refuses a tau with it too, so it is public; like `revenue_terms` below
# it stays out of `__all__`.
def supported_depth(depth: int, what: str) -> None:
    """Refuse a `depth` above `MAX_SYSTEM_HORIZON`; the message calls it `what`."""
    if depth > MAX_SYSTEM_HORIZON:
        raise ResourceLimitError(
            f"{what} {depth} exceeds the supported ceiling "
            f"{MAX_SYSTEM_HORIZON} (k = {2**MAX_SYSTEM_HORIZON - 1})")


def build_system(buyer_discount: DiscountSequence,
                 seller_discount: DiscountSequence) -> ReductionSystem:
    """Assemble the ordering and matrices for one discount pair.

    Requires finite discounts of equal length with all-positive weights and
    a regular buyer discount.  Horizons above 6 (k = 63) are outside the
    supported envelope of the dense linear algebra and are rejected.
    """
    gb = buyer_discount.as_array()
    gs = _finite_weights(seller_discount, len(gb))
    supported_depth(len(gb), "horizon")
    if (gb <= 0).any() or (gs <= 0).any():
        raise InvalidParameterError("all discount weights must be positive here")
    order = order_strategies(buyer_discount)
    gaps = order.quantities[1:] - order.quantities[:-1]  # q_j - q_{j-1} > 0 by regularity
    bits, nodes = (a[order.index[1:]] for a in _layout(order.horizon)[:2])
    # Row j of dK is what strategy a^j pays beyond a^(j-1); a^0 pays nothing
    dK_bb, dK_bs = (_payment_matrix(bits, w, nodes) for w in (gb, gs))
    dK_bb[1:], dK_bs[1:] = dK_bb[1:] - dK_bb[:-1], dK_bs[1:] - dK_bs[:-1]

    W = (1.0 / gaps)[:, None] * dK_bb
    W_inv = np.linalg.inv(W)
    Xi = dK_bs @ W_inv                        # revenue increments at the prices W_inv v

    if buyer_discount.weights == seller_discount.weights:
        off = Xi - np.diag(np.diag(Xi))
        if np.max(np.abs(off)) > 1e-9 * np.max(np.abs(Xi)):
            raise RuntimeError("internal error: Xi not diagonal for equal discounts")

    return ReductionSystem(order, W, W_inv, Xi)


def tree_to_v(system: ReductionSystem, tree: PricingTree) -> np.ndarray:
    """Surplus-line intersection abscissas of a tree: v = W @ prices.

    Lands in Delta^k exactly when the tree is completely active for the
    buyer discount; an out-of-order result is diagnostic, not an error.
    """
    if tree.horizon != system.horizon:
        raise InvalidParameterError("tree horizon does not match the system")
    return system.W @ np.fromiter(tree.prices().values(), float)


def v_to_tree(system: ReductionSystem, v) -> PricingTree:
    """The completely active tree whose indifference points are v.

    v must lie in Delta^k (non-negative, non-decreasing) up to a slack of
    `CONE_ORDER_TOL` * ||v||_1.  On the cone the prices W_inv @ v are
    non-negative up to rounding; the negative dust that rounding or the
    cone slack leaves is clamped to 0.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (system.k,):
        raise InvalidParameterError(f"v must have shape ({system.k},)")
    if (v[1:] - v[:-1]).min(initial=v[0]) < -CONE_ORDER_TOL * np.abs(v).sum():
        raise InvalidParameterError("v must satisfy 0 <= v_1 <= ... <= v_k")
    prices = np.maximum(system.W_inv @ v, 0.0)
    return PricingTree(system.horizon, dict(zip(_layout(system.horizon)[2], prices)))


# The optimizer takes the value and the gradient at a point from one
# `revenue_terms` triple.  Only core shares private names, so the two helpers
# are public to it, but like `core.strategy_bits` they stay out of `__all__`.
def revenue_terms(matrix: np.ndarray, dist: ValuationDistribution, v):
    """The revenue form (1 - F(v))' M v with the pair (1 - F(v), M v) it is made of."""
    survival, image = 1.0 - dist.cdf(v), matrix @ v
    return float(survival @ image), survival, image


def terms_gradient(matrix: np.ndarray, dist: ValuationDistribution, v, terms) -> np.ndarray:
    """The revenue form's gradient at v from `revenue_terms` at v."""
    _, survival, image = terms
    return matrix.T @ survival - dist.pdf(v) * image


def L_value(matrix: np.ndarray, dist: ValuationDistribution, v) -> float:
    """The revenue form (1 - F(v))' M v of kernel M; with M = Xi, the expected
    strategic revenue of the tree at v in Delta^k."""
    return revenue_terms(matrix, dist, v)[0]


def L_gradient(matrix: np.ndarray, dist: ValuationDistribution, v) -> np.ndarray:
    """Gradient M' (1 - F(v)) - diag(f(v)) M v of the revenue form."""
    return terms_gradient(matrix, dist, v, revenue_terms(matrix, dist, v))


def L_hessian(matrix: np.ndarray, dist: ValuationDistribution, v) -> np.ndarray:
    """Hessian -(M' diag f) - diag(f) M - diag(f' * M v) of the revenue form."""
    density = dist.pdf(v)
    hessian = -(matrix.T * density) - density[:, None] * matrix
    hessian.flat[::len(hessian) + 1] -= dist.dpdf(v) * (matrix @ v)  # the diagonal
    return hessian


def reduced_T2_functional(gs_rate: float, gb_rate: float) -> np.ndarray:
    """The 2x2 kernel of the T=2 problem collapsed onto the plane v_2 = v_3.

    The maximizer (v1, v2) of `L_value` with this kernel, embedded as
    (v1, v2, v2), attains the full three-dimensional optimum.
    """
    gs_rate, gb_rate = _nonnegative(gs_rate, "gs_rate"), _nonnegative(gb_rate, "gb_rate")
    if not 0.0 < gb_rate < gs_rate < 1.0:
        raise InvalidParameterError("rates must satisfy 0 < gb < gs < 1")
    return np.array([[gs_rate, 0.0],
                     [-(gs_rate - gb_rate), 1.0 + gs_rate - gb_rate]])
