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

from dataclasses import dataclass

import numpy as np

from .core import DiscountSequence, PricingTree, _finite_weights, canonical_nodes
from .distributions import ValuationDistribution
from .errors import (InfeasiblePointError, InvalidParameterError,
                     RegularityError, ResourceLimitError)
from .oracle import _payment_matrix, strategy_bits

__all__ = [
    "StrategyOrder",
    "ReductionSystem",
    "consistent_node_order",
    "order_strategies",
    "build_system",
    "tree_to_v",
    "v_to_tree",
    "L_value",
    "L_gradient",
    "reduced_T2_functional",
]

QUANTITY_COLLISION_TOL = 1e-12
CONE_ORDER_TOL = 1e-9    # slack of v_to_tree's 0 <= v_1 <= ... <= v_k check
PRICE_DUST_TOL = 1e-10   # negative reconstructed prices this small are zeroed


def consistent_node_order(horizon: int) -> tuple[str, ...]:
    """Tree nodes ordered left subtree, root, right subtree, recursively.

    This in-order walk puts every node of the reject subtree before its
    parent, which keeps the payment matrices reproducibly structured.
    """
    def walk(prefix: str) -> list[str]:
        if len(prefix) >= horizon:
            return []
        return walk(prefix + "0") + [prefix] + walk(prefix + "1")

    if horizon < 1:
        raise InvalidParameterError("horizon must be a positive integer")
    return tuple(walk(""))


@dataclass(frozen=True)
class StrategyOrder:
    """All 2^T strategies sorted by ascending discounted quantity.

    Index 0 is always the all-reject strategy (quantity 0) and index k the
    all-accept one (quantity Gamma^B).
    """

    horizon: int
    bits: np.ndarray        # (2^T, T), row j is strategy a^j
    quantities: np.ndarray  # (2^T,), strictly increasing

    @property
    def strategies(self) -> tuple[str, ...]:
        return tuple("".join(str(int(b)) for b in row) for row in self.bits)

    @property
    def k(self) -> int:
        return self.bits.shape[0] - 1


def order_strategies(buyer_discount: DiscountSequence,
                     horizon: int | None = None) -> StrategyOrder:
    """Sort strategies by buyer-discounted quantity; requires regularity.

    Regularity means every strategy yields a distinct discounted quantity.
    Two quantities collide when they differ by at most
    `QUANTITY_COLLISION_TOL`; the `RegularityError` then names the pair.
    """
    w = _finite_weights(buyer_discount, horizon)
    bits = strategy_bits(len(w))
    quantities = bits.astype(float) @ w
    idx = np.argsort(quantities, kind="stable")
    order = StrategyOrder(horizon=len(w), bits=bits[idx], quantities=quantities[idx])
    gaps = np.diff(order.quantities)
    j = int(np.argmin(gaps))
    if gaps[j] <= QUANTITY_COLLISION_TOL:
        pair = order.strategies[j:j + 2]
        raise RegularityError(
            f"buyer discount is not regular: strategies {pair[0]} and "
            f"{pair[1]} share the discounted quantity (gap {gaps[j]:.3g})",
            pair=pair)
    return order


class ReductionSystem:
    """The matrices tying completely active trees to the cone Delta^k.

    W maps a tree's price vector (in consistent node order) to the vector of
    surplus-line intersection abscissas; Xi defines the revenue form
    L(v) = (1 - F(v))' Xi v.  Built by `build_system`; immutable after that.
    """

    def __init__(self, buyer_discount: DiscountSequence,
                 seller_discount: DiscountSequence, order: StrategyOrder,
                 node_order: tuple[str, ...], J: np.ndarray, z_diag: np.ndarray,
                 K_bb: np.ndarray, K_bs: np.ndarray, W: np.ndarray,
                 W_inv: np.ndarray, Xi: np.ndarray):
        self.buyer_discount = buyer_discount
        self.seller_discount = seller_discount
        self.order = order
        self.node_order = node_order
        self.J = J
        self.z_diag = z_diag
        self.K_bb = K_bb
        self.K_bs = K_bs
        self.W = W
        self.W_inv = W_inv
        self.Xi = Xi
        self.cond_W = float(np.linalg.cond(W))
        self.cond_Xi = float(np.linalg.cond(Xi))

    @property
    def horizon(self) -> int:
        return self.order.horizon

    @property
    def k(self) -> int:
        return self.order.k

    def export_matrices(self, path: str) -> None:
        """Dump the system matrices as long-format CSV for debugging.

        Columns matrix,row,col,value; a leading comment line records the
        horizon and both discount sequences.
        """
        gb = ",".join(f"{w:.12g}" for w in self.buyer_discount.weights)
        gs = ",".join(f"{w:.12g}" for w in self.seller_discount.weights)
        lines = [f"# horizon={self.horizon} buyer=({gb}) seller=({gs})",
                 "matrix,row,col,value"]
        named = [("J", self.J), ("Z", np.diag(self.z_diag)),
                 ("K_bb", self.K_bb), ("K_bs", self.K_bs),
                 ("W", self.W), ("Xi", self.Xi)]
        for name, matrix in named:
            for i in range(matrix.shape[0]):
                for j in range(matrix.shape[1]):
                    lines.append(f"{name},{i},{j},{matrix[i, j]:.12g}")
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")

    def __repr__(self) -> str:
        return (f"ReductionSystem(T={self.horizon}, k={self.k}, "
                f"cond_W={self.cond_W:.3g}, cond_Xi={self.cond_Xi:.3g})")


MAX_SYSTEM_HORIZON = 6  # k = 63: dense inversion stays effectively exact


def build_system(buyer_discount: DiscountSequence,
                 seller_discount: DiscountSequence,
                 horizon: int | None = None) -> ReductionSystem:
    """Assemble the ordering and matrices for one discount pair.

    Requires finite discounts of equal length with all-positive weights and
    a regular buyer discount.  Horizons above 6 (k = 63) are outside the
    supported envelope of the dense linear algebra and are rejected.
    """
    gb = _finite_weights(buyer_discount, horizon)
    gs = _finite_weights(seller_discount, len(gb))
    if len(gb) > MAX_SYSTEM_HORIZON:
        raise ResourceLimitError(
            f"horizon {len(gb)} exceeds the supported ceiling "
            f"{MAX_SYSTEM_HORIZON} (k = {2**MAX_SYSTEM_HORIZON - 1})")
    if np.any(gb <= 0) or np.any(gs <= 0):
        raise InvalidParameterError("all discount weights must be positive here")
    order = order_strategies(buyer_discount, len(gb))
    T = order.horizon
    k = order.k
    nodes = consistent_node_order(T)

    J = np.eye(k) - np.diag(np.ones(k - 1), -1)
    J_inv = np.tril(np.ones((k, k)))
    gaps = np.diff(order.quantities)          # q_j - q_{j-1} > 0 by regularity
    z_diag = 1.0 / gaps
    # K rows drop a^0 = all-reject, whose payment is zero; columns follow `nodes`
    canonical = {node: j for j, node in enumerate(canonical_nodes(T))}
    columns = [canonical[node] for node in nodes]
    K_bb = _payment_matrix(order.bits[1:], gb)[:, columns]
    K_bs = _payment_matrix(order.bits[1:], gs)[:, columns]

    W = z_diag[:, None] * (J @ K_bb)
    W_inv = np.linalg.inv(W)
    # Xi = J K_bs K_bb^-1 J^-1 Z^-1; right-multiplying by Z^-1 scales columns
    Xi = (J @ np.linalg.solve(K_bb.T, K_bs.T).T @ J_inv) * gaps[None, :]

    if buyer_discount.weights == seller_discount.weights:
        off = Xi - np.diag(np.diag(Xi))
        if np.max(np.abs(off)) > 1e-9 * max(1.0, np.max(np.abs(Xi))):
            raise RuntimeError("internal error: Xi not diagonal for equal discounts")

    return ReductionSystem(buyer_discount, seller_discount, order, nodes,
                           J, z_diag, K_bb, K_bs, W, W_inv, Xi)


def tree_to_v(system: ReductionSystem, tree: PricingTree) -> np.ndarray:
    """Surplus-line intersection abscissas of a tree: v = W @ prices.

    Lands in Delta^k exactly when the tree is completely active for the
    buyer discount; an out-of-order result is diagnostic, not an error.
    """
    if tree.horizon != system.horizon:
        raise InvalidParameterError("tree horizon does not match the system")
    prices = np.array([tree.price(n) for n in system.node_order])
    return system.W @ prices


def v_to_tree(system: ReductionSystem, v) -> PricingTree:
    """The completely active tree whose indifference points are v.

    v must lie in Delta^k (non-negative, non-decreasing) up to
    `CONE_ORDER_TOL`.  A genuinely negative reconstructed price means v left
    the image of the completely active set and is reported rather than
    clipped; negative dust within `PRICE_DUST_TOL` is zeroed.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (system.k,):
        raise InvalidParameterError(f"v must have shape ({system.k},)")
    if v[0] < -CONE_ORDER_TOL or np.any(np.diff(v) < -CONE_ORDER_TOL):
        raise InvalidParameterError("v must satisfy 0 <= v_1 <= ... <= v_k")
    prices = system.W_inv @ v
    worst = prices.min(initial=0.0)
    if worst < -PRICE_DUST_TOL:
        node = system.node_order[int(np.argmin(prices))]
        raise InfeasiblePointError(
            f"reconstructed price at node {node!r} is negative ({worst:.3g}); "
            "v is outside the completely active image")
    prices = np.maximum(prices, 0.0)
    return PricingTree(system.horizon, dict(zip(system.node_order, prices)))


def _bilinear_value(matrix: np.ndarray, dist: ValuationDistribution,
                    v: np.ndarray) -> float:
    tail = 1.0 - dist.cdf(v)
    return float(tail @ (matrix @ v))


def _bilinear_gradient(matrix: np.ndarray, dist: ValuationDistribution,
                       v: np.ndarray) -> np.ndarray:
    tail = 1.0 - dist.cdf(v)
    return matrix.T @ tail - dist.pdf(v) * (matrix @ v)


def _bilinear_hessian(matrix: np.ndarray, dist: ValuationDistribution,
                      v: np.ndarray) -> np.ndarray:
    """Hessian -(M' diag f) - diag(f) M - diag(f' * M v) of (1 - F(v))' M v."""
    density = dist.pdf(v)
    hessian = -(matrix.T * density) - density[:, None] * matrix
    hessian[np.diag_indices_from(hessian)] -= dist.dpdf(v) * (matrix @ v)
    return hessian


def L_value(system: ReductionSystem, dist: ValuationDistribution, v) -> float:
    """The revenue form (1 - F(v))' Xi v (expected strategic revenue on Delta^k)."""
    return _bilinear_value(system.Xi, dist, np.asarray(v, dtype=float))


def L_gradient(system: ReductionSystem, dist: ValuationDistribution, v) -> np.ndarray:
    """Gradient of L: Xi' (1 - F(v)) - diag(f(v)) Xi v."""
    return _bilinear_gradient(system.Xi, dist, np.asarray(v, dtype=float))


def reduced_T2_functional(gs_rate: float, gb_rate: float,
                          dist: ValuationDistribution):
    """The 2-variate collapse of the T=2 problem onto the plane v_2 = v_3.

    Returns (L2, matrix): L2(v1, v2) evaluates the reduced revenue form and
    `matrix` is its 2x2 bilinear kernel.  The maximizer (v1, v2), embedded
    as (v1, v2, v2), attains the full three-dimensional optimum.
    """
    if not 0.0 < gb_rate < gs_rate < 1.0:
        raise InvalidParameterError("rates must satisfy 0 < gb < gs < 1")
    matrix = np.array([[gs_rate, 0.0],
                       [-(gs_rate - gb_rate), 1.0 + gs_rate - gb_rate]])

    def L2(v1: float, v2: float) -> float:
        return _bilinear_value(matrix, dist, np.array([v1, v2], dtype=float))

    return L2, matrix
