"""Exact strategic-buyer behavior by exhaustive enumeration.

Every one of the 2^T strategies is scored against a pricing tree, so any
quantity derived here (best responses, revenue curves, expected revenue)
is trustworthy by construction and serves as the reference the rest of
the package is checked against.  The expected revenue is exact, with no
quadrature: the best response is constant between the valuations where it
switches, so it is a sum of seller payments times CDF differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .core import (DiscountSequence, GameOutcome, PricingTree, _finite_weights,
                   _nonnegative, _payment_matrix, _pricing_nodes, _words,
                   canonical_nodes, strategy_bits)
from .distributions import Uniform, ValuationDistribution
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
    "uniform_face_optimum",
]

BRUTE_FORCE_GRID = 50  # node prices per support grid in brute_force_optimal_tree
BRUTE_FORCE_CHUNK = 5  # (root, left) price pairs scored at once in brute_force_optimal_tree
SURPLUS_TIE_RTOL = 1e-12  # surplus ties, relative to the largest quantity times v
ARGBEST_BLOCK_CELLS = 2 ** 20  # surplus cells (strategies x valuations) held at once
MAX_FACE_K = 7  # uniform_face_optimum's ceiling: Xi at T <= 3, 502 faces at k = 7


@dataclass(frozen=True)
class BestResponse(GameOutcome):
    """A surplus-maximizing strategy and the totals it generates.

    `tie_count` is how many strategies achieved the maximal surplus (within
    `SURPLUS_TIE_RTOL` relative to q_max v, the largest quantity times v)
    before the seller-optimistic tie-break.
    """

    tie_count: int


@dataclass(frozen=True)
class StrategyTables:
    """Per-strategy totals for one tree: the raw material of enumeration.

    Rows are all 2^T strategies in increasing binary order, so row j is the
    strategy `format(j, f"0{T}b")`.
    """

    quantities: np.ndarray       # (2^T,)  buyer-discounted quantity
    buyer_payments: np.ndarray   # (2^T,)  buyer-discounted payment
    seller_payments: np.ndarray  # (2^T,)  seller-discounted payment (revenue)


def strategy_tables(tree: PricingTree, buyer_discount: DiscountSequence,
                    seller_discount: DiscountSequence) -> StrategyTables:
    """Quantities and payments of all strategies against one tree."""
    bits = strategy_bits(tree.horizon)
    gb = _finite_weights(buyer_discount, tree.horizon)
    gs = _finite_weights(seller_discount, tree.horizon)
    paid = np.fromiter(tree.prices().values(), float)[_pricing_nodes(bits)]
    paid *= bits  # the price of every accepted round, 0 for a rejected one
    return StrategyTables(
        quantities=bits @ gb,
        buyer_payments=paid @ gb,
        seller_payments=paid @ gs,
    )


def _argbest(tables: StrategyTables, v) -> tuple[np.ndarray, np.ndarray]:
    """Index of the best response at each valuation in v, plus tie counts.

    Ties in surplus (within `SURPLUS_TIE_RTOL` relative to q_max v, the
    largest quantity times v) resolve to the strategy with the largest
    seller payment; remaining ties to the lowest binary value.  q_max v
    bounds both terms of a near-tied surplus q_a v - r_a, since the best
    surplus is at least 0 (all-reject pays nothing), so payments of
    strategies far from a tie cannot widen it.  The surpluses are formed
    for blocks of valuations of at most `ARGBEST_BLOCK_CELLS` cells, so
    memory does not grow with len(v).
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    step = max(1, ARGBEST_BLOCK_CELLS // len(tables.quantities))
    idx = np.empty(v.size, dtype=np.intp)
    ties = np.empty(v.size, dtype=np.intp)
    for start in range(0, v.size, step):
        block = slice(start, start + step)
        surpluses = tables.quantities[:, None] * v[None, block] - tables.buyer_payments[:, None]
        s_max = surpluses.max(axis=0)
        tol = SURPLUS_TIE_RTOL * tables.quantities.max() * v[block]
        tied = surpluses >= (s_max - tol)[None, :]
        seller = np.where(tied, tables.seller_payments[:, None], -np.inf)
        idx[block], ties[block] = np.argmax(seller, axis=0), tied.sum(axis=0)
    return idx, ties


def best_response(tree: PricingTree, v: float, buyer_discount: DiscountSequence,
                  seller_discount: DiscountSequence) -> BestResponse:
    """Enumerate all strategies and return a surplus-maximizing one.

    Among surplus ties the buyer is assumed seller-optimistic (maximal
    seller revenue); ties occur only on a measure-zero set of valuations,
    so this choice never affects expected quantities.
    """
    v = _nonnegative(v, "valuation")
    tables = strategy_tables(tree, buyer_discount, seller_discount)
    idx, ties = _argbest(tables, v)
    j = int(idx[0])
    return BestResponse(
        strategy=_words([j], tree.horizon)[0],
        surplus=float(tables.quantities[j] * v - tables.buyer_payments[j]),
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


def strategic_revenue_curve(tree: PricingTree, buyer_discount: DiscountSequence,
                            seller_discount: DiscountSequence, v_grid) -> RevenueCurve:
    """Best responses at every grid valuation (grid must be finite, sorted, >= 0)."""
    v = np.asarray(v_grid, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidParameterError("valuation grid must be a non-empty 1-d array")
    if not np.all(v >= 0) or not np.all(np.isfinite(v)) or np.any(np.diff(v) < 0):
        raise InvalidParameterError("valuation grid must be finite, sorted and non-negative")
    tables = strategy_tables(tree, buyer_discount, seller_discount)
    idx, _ = _argbest(tables, v)
    return RevenueCurve(
        valuations=v,
        surplus=tables.quantities[idx] * v - tables.buyer_payments[idx],
        revenue=tables.seller_payments[idx],
        quantity=tables.quantities[idx],
        strategies=_words(idx.tolist(), tree.horizon),
    )


def envelope_breakpoints(tables: StrategyTables, lo: float, hi: float) -> np.ndarray:
    """Valuations in (lo, hi) where the buyer's best response switches.

    These are the breakpoints of the upper envelope of the surplus lines
    S_a(v) = q_a v - r_a, computed by the convex-hull sweep over slopes.
    """
    lo, hi = _nonnegative(lo, "breakpoint lo"), _nonnegative(hi, "breakpoint hi")
    if lo >= hi:
        raise InvalidParameterError(f"breakpoints need lo < hi, got {lo} and {hi}")
    order = np.lexsort((tables.buyer_payments, tables.quantities))
    q = tables.quantities[order]
    r = tables.buyer_payments[order]
    hull_q: list[float] = []
    hull_r: list[float] = []
    hull_x: list[float] = []  # abscissa where each hull line takes over
    for qi, ri in zip(q, r):
        # every line is appended last, so an earlier line of the same slope
        # is hull_q[-1]; it has the smaller payment, and this one lies below
        if hull_q and qi == hull_q[-1]:
            continue
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


def expected_strategic_revenue(tree: PricingTree, dist: ValuationDistribution,
                               buyer_discount: DiscountSequence,
                               seller_discount: DiscountSequence) -> float:
    """E[ strategic revenue ] over the valuation distribution, exactly.

    Between consecutive envelope breakpoints the best response is one
    strategy, so the revenue is a step function of v and
    E[R] = sum_j R_j (F(b_j) - F(a_j)) over the pieces [a_j, b_j] of the
    support.  R_j is the seller payment of the best response at the piece
    midpoint, under the seller-optimistic tie rule of `best_response`.
    """
    tables = strategy_tables(tree, buyer_discount, seller_discount)
    lo, hi = dist.support
    edges = np.concatenate(([lo], envelope_breakpoints(tables, lo, hi), [hi]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    idx, _ = _argbest(tables, mid)
    mass = np.diff(dist.cdf(edges))
    return float(tables.seller_payments[idx] @ mass)


def brute_force_optimal_tree(dist: ValuationDistribution,
                             buyer_discount: DiscountSequence,
                             seller_discount: DiscountSequence) -> tuple[PricingTree, float]:
    """Exhaustive grid search over all two-round trees; the slow trusted oracle.

    Every combination of the three node prices on a uniform support grid of
    `BRUTE_FORCE_GRID` points is scored by Gauss-Legendre quadrature (8
    panels of 32 nodes), and the winner is re-scored by the exact
    `expected_strategic_revenue`.  Both discounts must have two rounds --
    the point is an oracle cheap enough to run and dumb enough to trust.
    Quadrature weights that are not finite (a uniform density overflows on
    a support narrower than about 5.6e-309) are refused with
    `InvalidParameterError`.

    At each node the buyer takes the strategy of largest surplus; among
    equal surpluses, the first in `strategy_bits` order.  Among equal
    scores the first tree in grid order wins.

    Strategies 00, 01 and 10 pay nothing at the right node '1': their
    payment rows are [0, 0, 0], [0, g_2, 0] and [g_1, 0, 0].  So each of
    their payments is exactly fl(g p) of one grid price, whatever order the
    product sums in, and it is the same for every right price.  The grid is
    therefore scored as (pairs, right prices, nodes): the running best
    response over 00, 01 and 10 is formed once per (root, left) price pair,
    and strategy 11's line is compared against it for every right price.

    `BRUTE_FORCE_CHUNK` pairs are scored at a time.  A chunk of 5 pairs
    holds (5, 50, 256) float64 arrays (500 KiB each) and one boolean mask.
    The chunk's row count is part of each score's rounding: the product
    that sums a tree's quadrature rounds according to it, so the chunk
    boundaries fix the scores bit for bit.
    """
    gb = _finite_weights(buyer_discount, 2)
    gs = _finite_weights(seller_discount, 2)
    lo, hi = dist.support
    n = BRUTE_FORCE_GRID
    grid = np.linspace(lo, hi, n)

    # node prices (root, left '0', right '1') for every grid combination
    prices = np.stack([a.ravel() for a in np.meshgrid(grid, grid, grid,
                                                      indexing="ij")], axis=1)
    bits = strategy_bits(2)
    # (strategies, (root, left) pairs, right prices): views of the payments
    r_buyer = (prices @ _payment_matrix(bits, gb).T).T.reshape(4, n * n, n)
    r_seller = (prices @ _payment_matrix(bits, gs).T).T.reshape(4, n * n, n)
    q = bits @ gb

    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(lo, hi, 9)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
    fw = (half * w).ravel() * dist.pdf(nodes)
    if not np.isfinite(fw).all():  # a density that overflows would score every tree NaN
        raise InvalidParameterError("the quadrature weights are not finite on this support")
    lines = q[:, None] * nodes  # each strategy's buyer value at every node

    best_value = -np.inf
    best_index = 0
    for first in range(0, n * n, BRUTE_FORCE_CHUNK):
        sl = slice(first, first + BRUTE_FORCE_CHUNK)
        # the running best response over strategies 00, 01 and 10, which pay
        # nothing at the right node: its surplus and seller revenue per (pair, node)
        best = lines[0] - r_buyer[0, sl, :1]
        revenue = np.broadcast_to(r_seller[0, sl, :1], best.shape).copy()
        for j in range(1, 3):
            surplus = lines[j] - r_buyer[j, sl, :1]
            better = surplus > best  # strict, so the first maximal strategy stays
            np.copyto(best, surplus, where=better)
            np.copyto(revenue, r_seller[j, sl, :1], where=better)
        # strategy 11 against that best response, per (pair, right price, node)
        revenue = np.where(lines[3] - r_buyer[3, sl, :, None] > best[:, None, :],
                           r_seller[3, sl, :, None], revenue[:, None, :])
        values = revenue.reshape(-1, len(nodes)) @ fw
        j = int(np.argmax(values))
        if values[j] > best_value:
            best_value = float(values[j])
            best_index = first * n + j
    tree = PricingTree(2, dict(zip(canonical_nodes(2), prices[best_index])))
    return tree, expected_strategic_revenue(tree, dist, buyer_discount, seller_discount)


def uniform_face_optimum(matrix, dist: ValuationDistribution) -> tuple[np.ndarray, float]:
    """Exact maximum (v, value) of (1 - F(v))' M v over 0 <= v_1 <= ... <= v_k, F uniform.

    Each face puts every value at 0, at lo, free in [lo, hi] (adjacent free
    values pooled or not) or at hi.  F is affine there, so L is a quadratic
    in the free block values, and the best feasible stationary point over
    all faces, scored by its face quadratic, is the global maximum:
    - below lo, L is linear in a block's value, so 0 or lo is as good;
    - above hi, L is linear with a coefficient <= 0 (on a game's kernel L is
      a tree's revenue, so bounded), so hi is as good;
    - a face whose system is singular or whose solution is infeasible has
      its maximum on a lower face, since the free values lie in [lo, hi].
    """
    if not isinstance(dist, Uniform):
        raise InvalidParameterError(f"face enumeration needs a Uniform valuation, got {dist!r}")
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not np.isfinite(matrix).all():
        raise InvalidParameterError(f"kernel must be finite and square, got shape {matrix.shape}")
    k = len(matrix)
    if k > MAX_FACE_K:
        raise ResourceLimitError(f"kernel size {k} exceeds the face ceiling {MAX_FACE_K}")
    lo, hi = dist.support
    best_v, best = None, -np.inf
    for a, b, c in combinations_with_replacement(range(k + 1), 3):
        counts = (a, b - a, c - b, k - c)  # values at 0, at lo, free, at hi
        base = np.repeat([0.0, lo, 0.0, hi], counts)
        tail = np.repeat([1.0, 1.0, hi / (hi - lo), 0.0], counts)  # 1 - F(v) + free v / (hi - lo)
        for cuts in product((0, 1), repeat=max(c - b - 1, 0)):
            blocks = np.zeros((k, c - b))
            blocks[np.arange(b, c), np.cumsum((0,) + cuts)[:c - b]] = 1.0
            blocks = blocks[:, blocks.any(axis=0)]
            quad = blocks.T @ matrix @ blocks / (hi - lo)
            lin = blocks.T @ (matrix.T @ tail - matrix @ base / (hi - lo))
            u = np.linalg.lstsq(quad + quad.T, lin)[0]  # the face's stationary point
            value = float(tail @ matrix @ base + lin @ u - u @ quad @ u)
            if np.all(np.diff(u) >= 0) and np.all((lo <= u) & (u <= hi)) and value > best:
                best_v, best = base + blocks @ u, value
    return best_v, best
