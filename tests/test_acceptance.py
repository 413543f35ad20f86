"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are
fixed here, not tuned: closed forms and the enumeration oracle's expected
revenue are exact, and optimizer outputs are compared against independent
oracles (exhaustive grid search, exact QP, hand formulas) plus regression
pins from the first verified run.
"""

import numpy as np

from postedprice import (Beta, L_gradient, L_value, PricingTree, Uniform,
                         best_response, big_deal, brute_force_optimal_tree,
                         build_system, canonical_nodes, constant_myerson,
                         expected_strategic_revenue, make_geometric_discount,
                         maximize_L, myerson_price, strategic_revenue_curve,
                         tree_to_v, truncate, v_to_tree)
from postedprice.optimizer import maximize_bilinear
from postedprice.oracle import BRUTE_FORCE_GRID
from postedprice.reduction import reduced_T2_functional

UNIFORM = Uniform(0, 1)
BETA42 = Beta(4, 2)

# first verified run of this package (optimizer seeds fixed below)
REGRESSION_VALUES_T2_GS08 = {0.2: 0.4840336134453781, 0.5: 0.45995085995086}
REGRESSION_VALUE_T3_GS08_GB06 = 0.6285053094104724
REGRESSION_TAU_VALUES = {2: 1.53380423814329, 3: 1.6897796196375008,
                         4: 1.7456091472431374, 5: 1.7646024813172507,
                         6: 1.771181216953735}


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:02d}: {detail}")
    assert ok, f"criterion {criterion:02d}: {detail}"


def _random_tree(rng, horizon, hi=1.5):
    prices = dict(zip(canonical_nodes(horizon), rng.uniform(0.0, hi, 2**horizon - 1)))
    return PricingTree(horizon, prices)


def test_criterion_01_equal_discounts_constant_optimum():
    worst_value, worst_point = 0.0, 0.0
    for rate in (0.2, 0.5, 0.8):
        for horizon in (2, 3):
            g = make_geometric_discount(rate, horizon)
            res = maximize_L(UNIFORM, g, g, starts=6, seed=0)
            worst_value = max(worst_value, abs(res.value - 0.25 * g.total))
            worst_point = max(worst_point, float(np.max(np.abs(res.v_star - 0.5))))
    ok = worst_value <= 1e-4 and worst_point <= 1e-3
    _report(1, ok, "equal discounts: |value - 0.25*Gamma| <= 1e-4 and "
                   f"|v* - 0.5| <= 1e-3 (got {worst_value:.2e}, {worst_point:.2e})")


def test_criterion_02_big_deal_revenue_and_threshold():
    worst = 0.0
    threshold_ok = True
    for dist in (UNIFORM, BETA42):
        p_star, h_star = myerson_price(dist)
        for rate in (0.2, 0.5, 0.8):
            game = truncate(rate, rate, 12)
            tree, closed_form = big_deal(dist, game.buyer, game.seller)
            quad = expected_strategic_revenue(tree, dist, game.buyer, game.seller)
            worst = max(worst, abs(quad - 1 / (1 - rate) * h_star))
            above = best_response(tree, p_star + 1e-3, game.buyer, game.seller)
            below = best_response(tree, p_star - 1e-3, game.buyer, game.seller)
            threshold_ok &= above.strategy[0] == "1"
            threshold_ok &= below.strategy[0] == "0"
    ok = worst <= 1e-4 and threshold_ok
    _report(2, ok, "big deal (tau=12): the oracle matches Gamma_B*H* within 1e-4 "
                   f"(worst {worst:.2e}) and acceptance flips at p* +/- 1e-3")


def test_criterion_03_dominance_ratio():
    pairs = [(0.2, 0.5), (0.2, 0.8), (0.5, 0.8), (0.3, 0.6), (0.4, 0.9)]
    worst = 0.0
    for gs_rate, gb_rate in pairs:
        game = truncate(gb_rate, gs_rate, 4)
        _, bd = big_deal(UNIFORM, game.buyer, game.seller)
        _, const = constant_myerson(UNIFORM, game.seller)
        worst = max(worst, abs(bd / const - (1 / (1 - gb_rate)) / (1 / (1 - gs_rate))))
    _report(3, worst <= 1e-6,
            f"big-deal / constant revenue ratio equals Gamma_B/Gamma_S "
            f"(worst |diff| {worst:.2e} over {len(pairs)} pairs, gs < gb)")


def test_criterion_04_patient_buyer_revenue_ceiling():
    rng = np.random.default_rng(404)
    gb = make_geometric_discount(0.8, 3)
    gs = make_geometric_discount(0.5, 3)
    _, h_star = myerson_price(UNIFORM)
    cap = gb.total * h_star
    worst = -np.inf
    for _ in range(100):
        tree = _random_tree(rng, 3)
        value = expected_strategic_revenue(tree, UNIFORM, gb, gs)
        worst = max(worst, value - cap)
    _report(4, worst <= 1e-6,
            f"100 random trees stay under Gamma_B*H* (max excess {worst:.2e})")


def test_criterion_05_revenue_form_equals_oracle():
    rng = np.random.default_rng(505)
    worst = 0.0
    for horizon, (gb_rate, gs_rate), n in [(2, (0.2, 0.8), 25), (3, (0.4, 0.7), 25)]:
        gb = make_geometric_discount(gb_rate, horizon)
        gs = make_geometric_discount(gs_rate, horizon)
        system = build_system(gb, gs)
        for _ in range(n):
            v = np.sort(rng.uniform(0.0, 1.0, 2**horizon - 1))
            tree = v_to_tree(system, v)
            quad = expected_strategic_revenue(tree, UNIFORM, gb, gs)
            worst = max(worst, abs(L_value(system.Xi, UNIFORM, v) - quad))
    _report(5, worst <= 1e-5,
            f"L agrees with the oracle on 50 cone points (worst {worst:.2e})")


def test_criterion_06_round_trip_and_invertibility():
    rng = np.random.default_rng(606)
    worst = 0.0
    conds = []
    for horizon, n in [(2, 34), (3, 33), (4, 33)]:
        gb = make_geometric_discount(0.45, horizon)
        gs = make_geometric_discount(0.85, horizon)
        system = build_system(gb, gs)
        conds.append((horizon, np.linalg.cond(system.W), np.linalg.cond(system.Xi)))
        k = 2**horizon - 1
        for _ in range(n):
            v = np.sort(rng.uniform(0.0, 1.0, k))
            tree = v_to_tree(system, v)
            worst = max(worst, float(np.max(np.abs(tree_to_v(system, tree) - v))))
            prices = np.array(list(tree.prices().values()))
            again = v_to_tree(system, tree_to_v(system, tree))
            prices2 = np.array(list(again.prices().values()))
            worst = max(worst, float(np.max(np.abs(prices - prices2))))
    cond_text = ", ".join(f"T={t}: cond(W)={cw:.3g} cond(Xi)={cx:.3g}"
                          for t, cw, cx in conds)
    _report(6, worst <= 1e-9 and all(np.isfinite(c) for _, cw, cx in conds
                                     for c in (cw, cx)),
            f"tree<->cone maps invert (worst {worst:.2e}); {cond_text}")


def test_criterion_07_plane_collapse_at_T2():
    gb = make_geometric_discount(0.2, 2)
    gs = make_geometric_discount(0.8, 2)
    full = maximize_L(UNIFORM, gb, gs, starts=8, seed=1)
    gap = abs(full.v_star[1] - full.v_star[2])
    matrix = reduced_T2_functional(0.8, 0.2)
    _, reduced_value, *_ = maximize_bilinear(matrix, UNIFORM, starts=8, seed=1)
    diff = abs(reduced_value - full.value)
    _report(7, gap <= 1e-4 and diff <= 1e-6,
            f"3-d optimum sits on v2 = v3 (gap {gap:.2e}) and the 2-d "
            f"collapse attains it (value diff {diff:.2e})")


def test_criterion_08_optimizer_matches_grid_oracle():
    rng = np.random.default_rng(808)
    cell = 1.0 / (BRUTE_FORCE_GRID - 1)
    worst = -np.inf
    for _ in range(5):
        gs_rate = float(rng.uniform(0.5, 0.95))
        gb_rate = float(rng.uniform(0.05, gs_rate - 0.1))
        gb = make_geometric_discount(gb_rate, 2)
        gs = make_geometric_discount(gs_rate, 2)
        _, bf_value = brute_force_optimal_tree(UNIFORM, gb, gs)
        opt = maximize_L(UNIFORM, gb, gs, starts=8, seed=2)
        assert opt.value >= bf_value - 1e-6  # grid trees are feasible points
        worst = max(worst, abs(opt.value - bf_value))
    _report(8, worst <= cell,
            f"optimizer within one grid cell ({cell:.3g}) of the exhaustive "
            f"search on 5 random rate pairs (worst gap {worst:.2e})")


def test_criterion_09_fig_level_behavior():
    gs = make_geometric_discount(0.8, 2)
    baseline = gs.total * 0.25
    ratios = {}
    for gb_rate in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        gb = make_geometric_discount(gb_rate, 2)
        res = maximize_L(UNIFORM, gb, gs, starts=8, seed=1)
        ratios[gb_rate] = res.value / baseline
    all_above = all(r > 1.0 for r in ratios.values())

    near = maximize_L(UNIFORM, make_geometric_discount(0.795, 2), gs,
                      starts=8, seed=1)
    collapse = abs(near.value / baseline - 1.0)

    res3 = maximize_L(UNIFORM, make_geometric_discount(0.6, 3),
                      make_geometric_discount(0.8, 3), starts=8, seed=1)
    prices = res3.tree.prices()
    non_consistent = prices[""] < prices["01"]

    pinned = all(
        abs(ratios[r] * baseline - REGRESSION_VALUES_T2_GS08[r]) <= 1e-7
        for r in REGRESSION_VALUES_T2_GS08)
    pinned &= abs(res3.value - REGRESSION_VALUE_T3_GS08_GB06) <= 1e-7

    ok = all_above and collapse <= 1e-3 and non_consistent and pinned
    _report(9, ok, "optimal pricing beats the constant baseline for gb in "
                   f"0.1..0.7, ratio-1 = {collapse:.1e} at gb=0.795, T=3 "
                   "optimum is non-consistent (root < price after 01), and "
                   "curve values match the pinned first run")


def test_criterion_10_tau_step_sandwich():
    values = {}
    for tau in range(2, 7):
        game = truncate(0.2, 0.8, tau)
        values[tau] = maximize_L(UNIFORM, game.buyer, game.seller, starts=8,
                                 seed=1).value
    monotone = all(values[t] <= values[t + 1] + 1e-9 for t in range(2, 6))
    overall = values[6] - values[2] <= 0.8**2 / 0.2 * 0.5 + 1e-9
    gaps_ok = all(values[6] - values[tau] <= 0.8**tau / 0.2 * 0.5 + 1e-6
                  for tau in range(2, 6))
    pinned = all(abs(values[t] - REGRESSION_TAU_VALUES[t]) <= 1e-7
                 for t in values)
    _report(10, monotone and overall and gaps_ok and pinned,
            "tau-step values are non-decreasing, inside the tail bounds, and "
            f"match the pinned run ({', '.join(f'{v:.6f}' for v in values.values())})")


def test_criterion_11_strategic_behavior_properties():
    rng = np.random.default_rng(1111)
    gb = make_geometric_discount(0.55, 3)
    gs = make_geometric_discount(0.85, 3)
    grid = np.linspace(0.0, 1.5, 200)
    h = grid[1] - grid[0]
    worst_slope = 0.0
    ok = True
    for _ in range(20):
        curve = strategic_revenue_curve(_random_tree(rng, 3), gb, gs, grid)
        ok &= bool(np.all(np.diff(curve.revenue) >= -1e-9))
        ok &= curve.revenue[0] == 0.0
        ok &= bool(np.all(curve.surplus >= -1e-12))
        ok &= bool(np.all(np.diff(curve.quantity) >= -1e-9))
        ok &= bool(np.all(curve.quantity <= gb.total + 1e-9))
        # where the bought quantity is locally constant, it is the slope of
        # the optimal surplus
        q = curve.quantity
        flat = (np.abs(q[2:] - q[1:-1]) < 1e-12) & (np.abs(q[1:-1] - q[:-2]) < 1e-12)
        slope = (curve.surplus[2:] - curve.surplus[:-2]) / (2 * h)
        if np.any(flat):
            worst_slope = max(worst_slope, float(np.max(
                np.abs(slope[flat] - q[1:-1][flat]))))
    ok &= worst_slope <= 1e-4
    _report(11, ok, "20 random trees: R non-decreasing from 0, S >= 0, Q "
                    f"non-decreasing <= Gamma_B, S' = Q (worst {worst_slope:.2e})")


def test_criterion_12_gradient_correctness():
    rng = np.random.default_rng(1212)
    h = 1e-6
    worst = 0.0
    for horizon in (2, 3):
        for gb_rate, gs_rate in [(0.2, 0.8), (0.45, 0.9)]:
            gb = make_geometric_discount(gb_rate, horizon)
            gs = make_geometric_discount(gs_rate, horizon)
            system = build_system(gb, gs)
            k = 2**horizon - 1
            for _ in range(20):
                v = np.sort(rng.uniform(0.1, 0.9, k))
                grad = L_gradient(system.Xi, UNIFORM, v)
                for i in range(k):
                    e = np.zeros(k)
                    e[i] = h
                    fd = (L_value(system.Xi, UNIFORM, v + e)
                          - L_value(system.Xi, UNIFORM, v - e)) / (2 * h)
                    denom = max(abs(grad[i]), 1e-8)
                    worst = max(worst, abs(fd - grad[i]) / denom)
    _report(12, worst <= 1e-6,
            f"analytic gradient matches central differences (worst rel {worst:.2e})")
