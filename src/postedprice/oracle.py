"""Exact strategic-buyer behavior by exhaustive enumeration.

Every one of the 2^T strategies is scored against a pricing tree, so any
quantity derived here (best responses, revenue curves, expected revenue)
is trustworthy by construction and serves as the reference the rest of
the package is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BuyerStrategy, DiscountSequence, PricingTree, canonical_nodes
from .distributions import ValuationDistribution
from .errors import InvalidParameterError, ResourceLimitError

__all__ = [
    "BestResponse",
    "StrategyTables",
    "RevenueCurve",
    "strategy_tables",
    "best_response",
    "strategic_revenue_curve",
    "expected_strategic_revenue",
    "envelope_breakpoints",
    "brute_force_optimal_tree",
]

MAX_ENUM_HORIZON = 20
SURPLUS_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class BestResponse:
    """A surplus-maximizing strategy and the totals it generates.

    `tie_count` is how many strategies achieved the maximal surplus (within
    the relative tie tolerance) before the seller-optimistic tie-break.
    """

    strategy: BuyerStrategy
    surplus: float
    revenue: float
    quantity: float
    tie_count: int


@dataclass(frozen=True)
class StrategyTables:
    """Per-strategy totals for one tree: the raw material of enumeration.

    Rows are all 2^T strategies in increasing binary order.
    """

    bits: np.ndarray             # (2^T, T) 0/1
    quantities: np.ndarray       # (2^T,)  buyer-discounted quantity
    buyer_payments: np.ndarray   # (2^T,)  buyer-discounted payment
    seller_payments: np.ndarray  # (2^T,)  seller-discounted payment (revenue)

    def surpluses(self, v) -> np.ndarray:
        """Surplus of every strategy at valuation(s) v; shape (2^T,) or (2^T, n)."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 0:
            return self.quantities * float(v) - self.buyer_payments
        return self.quantities[:, None] * v[None, :] - self.buyer_payments[:, None]


def strategy_bits(horizon: int) -> np.ndarray:
    """All strategies of a T-round game as a (2^T, T) bit matrix, binary order."""
    if horizon > MAX_ENUM_HORIZON:
        raise ResourceLimitError(
            f"horizon {horizon} exceeds the enumeration guard {MAX_ENUM_HORIZON}")
    m = 2 ** horizon
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


def _check_game(tree: PricingTree, buyer_discount: DiscountSequence,
                seller_discount: DiscountSequence) -> None:
    if tree.horizon > MAX_ENUM_HORIZON:
        raise ResourceLimitError(
            f"horizon {tree.horizon} exceeds the enumeration guard {MAX_ENUM_HORIZON}")
    if not (buyer_discount.is_finite and seller_discount.is_finite):
        raise InvalidParameterError("enumeration needs finite discounts; truncate first")
    if len(buyer_discount) != tree.horizon or len(seller_discount) != tree.horizon:
        raise InvalidParameterError("discount lengths must match the tree horizon")


def strategy_tables(tree: PricingTree, buyer_discount: DiscountSequence,
                    seller_discount: DiscountSequence) -> StrategyTables:
    """Quantities and payments of all strategies against one tree."""
    _check_game(tree, buyer_discount, seller_discount)
    bits = strategy_bits(tree.horizon)
    gb = buyer_discount.as_array()
    gs = seller_discount.as_array()
    paid = bits.astype(float)
    prices = np.fromiter(tree.prices().values(), float)[_pricing_nodes(bits)]
    return StrategyTables(
        bits=bits,
        quantities=paid @ gb,
        buyer_payments=(paid * prices) @ gb,
        seller_payments=(paid * prices) @ gs,
    )


def _argbest(tables: StrategyTables, surpluses: np.ndarray,
             tie_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index of the best response per column of `surpluses`, plus tie counts.

    Ties in surplus (relative tolerance) resolve to the strategy with the
    largest seller payment; remaining ties to the lowest binary value.
    """
    if surpluses.ndim == 1:
        surpluses = surpluses[:, None]
    s_max = surpluses.max(axis=0)
    tol = tie_tol * np.maximum(1.0, np.abs(s_max))
    tied = surpluses >= (s_max - tol)[None, :]
    seller = np.where(tied, tables.seller_payments[:, None], -np.inf)
    return np.argmax(seller, axis=0), tied.sum(axis=0)


def best_response(tree: PricingTree, v: float, buyer_discount: DiscountSequence,
                  seller_discount: DiscountSequence, *,
                  tie_tol: float = SURPLUS_TIE_RTOL) -> BestResponse:
    """Enumerate all strategies and return a surplus-maximizing one.

    Among surplus ties the buyer is assumed seller-optimistic (maximal
    seller revenue); ties occur only on a measure-zero set of valuations,
    so this choice never affects expected quantities.
    """
    if v < 0:
        raise InvalidParameterError("valuation must be non-negative")
    tables = strategy_tables(tree, buyer_discount, seller_discount)
    surpluses = tables.surpluses(float(v))
    idx, ties = _argbest(tables, surpluses, tie_tol)
    j = int(idx[0])
    return BestResponse(
        strategy=BuyerStrategy(tuple(int(b) for b in tables.bits[j])),
        surplus=float(surpluses[j]),
        revenue=float(tables.seller_payments[j]),
        quantity=float(tables.quantities[j]),
        tie_count=int(ties[0]),
    )


@dataclass(frozen=True)
class RevenueCurve:
    """Best-response outcomes over a valuation grid (CSV columns v,S,R,Q)."""

    valuations: np.ndarray
    surplus: np.ndarray
    revenue: np.ndarray
    quantity: np.ndarray
    strategies: tuple[str, ...]

    def __iter__(self):
        return iter(zip(self.valuations, self.surplus, self.revenue, self.quantity))


def strategic_revenue_curve(tree: PricingTree, buyer_discount: DiscountSequence,
                            seller_discount: DiscountSequence,
                            v_grid, *, tie_tol: float = SURPLUS_TIE_RTOL) -> RevenueCurve:
    """Best responses at every grid valuation (grid must be sorted, >= 0)."""
    v = np.asarray(v_grid, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidParameterError("valuation grid must be a non-empty 1-d array")
    if np.any(v < 0) or np.any(np.diff(v) < 0):
        raise InvalidParameterError("valuation grid must be sorted and non-negative")
    tables = strategy_tables(tree, buyer_discount, seller_discount)
    surpluses = tables.surpluses(v)
    idx, _ = _argbest(tables, surpluses, tie_tol)
    cols = np.arange(v.size)
    return RevenueCurve(
        valuations=v,
        surplus=surpluses[idx, cols],
        revenue=tables.seller_payments[idx],
        quantity=tables.quantities[idx],
        strategies=tuple("".join(str(int(b)) for b in tables.bits[j]) for j in idx),
    )


def envelope_breakpoints(tables: StrategyTables, lo: float, hi: float) -> np.ndarray:
    """Valuations in (lo, hi) where the buyer's best response switches.

    These are the breakpoints of the upper envelope of the surplus lines
    S_a(v) = q_a v - r_a, computed by the convex-hull sweep over slopes.
    """
    order = np.lexsort((tables.buyer_payments, tables.quantities))
    q = tables.quantities[order]
    r = tables.buyer_payments[order]
    # among equal slopes only the smallest payment can touch the envelope
    keep_q: list[float] = []
    keep_r: list[float] = []
    for qi, ri in zip(q, r):
        if keep_q and qi == keep_q[-1]:
            continue  # same slope, larger payment: strictly below
        keep_q.append(qi)
        keep_r.append(ri)
    hull_q: list[float] = []
    hull_r: list[float] = []
    hull_x: list[float] = []  # abscissa where each hull line takes over
    for qi, ri in zip(keep_q, keep_r):
        while hull_q:
            x = (ri - hull_r[-1]) / (qi - hull_q[-1])
            if x <= hull_x[-1]:
                hull_q.pop(), hull_r.pop(), hull_x.pop()
            else:
                hull_q.append(qi), hull_r.append(ri), hull_x.append(x)
                break
        if not hull_q:
            hull_q.append(qi), hull_r.append(ri), hull_x.append(-np.inf)
    cuts = np.array([x for x in hull_x if lo < x < hi])
    return np.unique(cuts)


def _gauss_panels(lo: float, hi: float, boundaries: np.ndarray,
                  nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    nodes, weights = [], []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def expected_strategic_revenue(tree: PricingTree, dist: ValuationDistribution,
                               buyer_discount: DiscountSequence,
                               seller_discount: DiscountSequence,
                               n_quadrature: int = 256, *, panels: int = 8,
                               align_breakpoints: bool = True) -> float:
    """E[ strategic revenue ] over the valuation distribution, by quadrature.

    Composite Gauss-Legendre over the support with `n_quadrature` nodes
    spread over `panels` panels.  The revenue curve jumps where the best
    response switches, so by default the panel boundaries are additionally
    split at the envelope breakpoints, leaving only smooth integrands.
    """
    if n_quadrature < 16:
        raise InvalidParameterError("n_quadrature must be at least 16")
    tables = strategy_tables(tree, buyer_discount, seller_discount)
    lo, hi = dist.support
    boundaries = np.linspace(lo, hi, panels + 1)
    if align_breakpoints:
        cuts = envelope_breakpoints(tables, lo, hi)
        boundaries = np.unique(np.concatenate([boundaries, cuts]))
    nodes, weights = _gauss_panels(lo, hi, boundaries, max(2, n_quadrature // panels))
    idx, _ = _argbest(tables, tables.surpluses(nodes), SURPLUS_TIE_RTOL)
    revenue = tables.seller_payments[idx]
    return float(np.dot(weights, revenue * np.asarray(dist.pdf(nodes))))


def brute_force_optimal_tree(dist: ValuationDistribution,
                             buyer_discount: DiscountSequence,
                             seller_discount: DiscountSequence,
                             horizon: int = 2, price_grid_resolution: int = 50,
                             n_quadrature: int = 256) -> tuple[PricingTree, float]:
    """Exhaustive grid search over all two-round trees; the slow trusted oracle.

    Every combination of the three node prices on a uniform support grid is
    scored by quadrature expected revenue.  Only horizon 2 is supported --
    the point is an oracle cheap enough to run and dumb enough to trust.
    """
    if horizon != 2:
        raise InvalidParameterError("brute force supports horizon 2 only")
    if not 1 <= price_grid_resolution <= 60:
        raise InvalidParameterError("price grid resolution must be in 1..60")
    if len(buyer_discount) != 2 or len(seller_discount) != 2:
        raise InvalidParameterError("discount lengths must match horizon 2")
    gb = buyer_discount.as_array()
    gs = seller_discount.as_array()
    lo, hi = dist.support
    grid = np.linspace(lo, hi, price_grid_resolution)

    # node prices (root, left '0', right '1') for every grid combination
    prices = np.stack([a.ravel() for a in np.meshgrid(grid, grid, grid,
                                                      indexing="ij")], axis=1)
    bits = strategy_bits(2)
    r_buyer = prices @ _payment_matrix(bits, gb).T
    r_seller = prices @ _payment_matrix(bits, gs).T
    q = bits @ gb

    boundaries = np.linspace(lo, hi, 9)
    nodes, weights = _gauss_panels(lo, hi, boundaries, max(2, n_quadrature // 8))
    fw = weights * np.asarray(dist.pdf(nodes))

    best_value = -np.inf
    best_index = 0
    n_trees = prices.shape[0]
    chunk = 4096
    for start in range(0, n_trees, chunk):
        sl = slice(start, min(start + chunk, n_trees))
        surplus = q[None, :, None] * nodes[None, None, :] - r_buyer[sl][:, :, None]
        pick = np.argmax(surplus, axis=1)
        rows = np.arange(pick.shape[0])[:, None]
        revenue = r_seller[sl][rows, pick]
        values = revenue @ fw
        j = int(np.argmax(values))
        if values[j] > best_value:
            best_value = float(values[j])
            best_index = start + j
    tree = PricingTree(2, dict(zip(canonical_nodes(2), prices[best_index])))
    # re-score the winner with breakpoint-aligned panels for an accurate value
    value = expected_strategic_revenue(tree, dist, buyer_discount, seller_discount,
                                       n_quadrature)
    return tree, value
