"""The reduction kernel Xi and a tree's expected revenue in exact rationals.

Second implementations kept on purpose: `reduction.build_system` forms Xi
and `oracle.expected_strategic_revenue` a tree's revenue in floating
point, this module forms both with `fractions.Fraction` from the same
float discount weights and prices read as exact rationals, so a test can
measure how far the float results lie from the exact ones.  It uses the
standard library only and shares no code with the package: the payment
matrices, the inverse of W, the surplus lines and their crossings are
rebuilt here from the game's rules.
"""

import math
from fractions import Fraction
from itertools import combinations, product


def _quantity(strategy, weights):
    """Discounted number of rounds the '0'/'1' strategy accepts."""
    return sum((w for w, bit in zip(weights, strategy) if bit == "1"), Fraction(0))


def _payments(strategy, weights):
    """Payment row of one strategy: its round-t weight at the node pricing round t.

    Nodes are listed by depth, then value, so the node reached after the
    answers a_1..a_t sits at position 2^t - 1 + int(a_1..a_t, 2).
    """
    row = [Fraction(0)] * (2 ** len(strategy) - 1)
    for t, bit in enumerate(strategy):
        if bit == "1":
            row[2 ** t - 1 + int(strategy[:t] or "0", 2)] = weights[t]
    return row


def _inverse(matrix):
    """Gauss-Jordan inverse of a square, invertible matrix of Fractions."""
    n = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            factor = rows[r][c]
            if r != c and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def exact_xi(strategies, quantities, buyer_weights, seller_weights):
    """Xi = dK_bs W^-1 of one regular finite game, as rows of Fractions.

    `strategies` and `quantities` are a strategy order as `order_strategies`
    records it: every strategy's '0'/'1' word, by ascending buyer quantity.
    Row j of dK is strategy j's payments less strategy j-1's, and
    W = diag(1 / gaps) dK_bb, with gaps the steps between the recorded
    quantities, since W is defined on them.  Everything else is formed from
    the weights, read as exact rationals.
    """
    gb, gs = ([Fraction(w) for w in weights] for weights in (buyer_weights, seller_weights))
    exact = [_quantity(a, gb) for a in strategies]
    assert all(a < b for a, b in zip(exact, exact[1:])), "not the buyer's quantity order"

    def increments(weights):
        K = [_payments(a, weights) for a in strategies]
        return [[x - y for x, y in zip(row, prev)] for prev, row in zip(K, K[1:])]

    q = [Fraction(float(x)) for x in quantities]
    gaps = [b - a for a, b in zip(q, q[1:])]
    W_inv = _inverse([[x / gap for x in row] for row, gap in zip(increments(gb), gaps)])
    return [[sum((x * y for x, y in zip(row, col) if x), Fraction(0)) for col in zip(*W_inv)]
            for row in increments(gs)]


def exact_expected_revenue(prices, buyer_weights, seller_weights, lo, hi):
    """E[revenue] of one tree over Uniform(lo, hi) against a strategic buyer.

    `prices` lists the tree's node prices by depth, then value, and the
    game has one round per weight.  Each strategy's surplus is the line
    q v - r; the best response is constant between consecutive crossings
    of two lines in (lo, hi), so it is read at each piece's midpoint:
    the largest surplus, then among equal ones the largest seller payment.
    Each piece weighs its seller payment by its exact mass (b - a) / (hi - lo).
    """
    gb, gs = ([Fraction(w) for w in weights] for weights in (buyer_weights, seller_weights))
    prices = [Fraction(p) for p in prices]
    lo, hi = Fraction(lo), Fraction(hi)
    lines = []  # (quantity, buyer payment, seller payment) of every strategy
    for bits in product("01", repeat=len(gb)):
        a = "".join(bits)
        lines.append((_quantity(a, gb),
                      sum((x * p for x, p in zip(_payments(a, gb), prices)), Fraction(0)),
                      sum((x * p for x, p in zip(_payments(a, gs), prices)), Fraction(0))))
    cuts = {(r2 - r1) / (q2 - q1) for (q1, r1, _), (q2, r2, _) in combinations(lines, 2)
            if q1 != q2}
    edges = [lo] + sorted(x for x in cuts if lo < x < hi) + [hi]
    # the lines times a common denominator of q and r, in integers: at
    # m = n / d the surplus q m - r, times it and d, is Q n - R d
    unit = math.lcm(*(x.denominator for q, r, _ in lines for x in (q, r)))
    lines = [(int(q * unit), int(r * unit), s) for q, r, s in lines]
    total = Fraction(0)
    for a, b in zip(edges, edges[1:]):
        m = (a + b) / 2
        _, paid = max((q * m.numerator - r * m.denominator, s) for q, r, s in lines)
        total += paid * (b - a) / (hi - lo)
    return total
