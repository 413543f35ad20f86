"""Revenue-optimal pricing for repeated posted-price auctions.

A seller repeatedly posts prices to one strategic buyer with a fixed
private valuation; both sides discount per-round utility by their own
weight sequences.  The package computes optimal pricing trees (constant,
pay-up-front, and numerically optimized via the reduction to a bilinear
form over an ordered cone) and checks everything against an exhaustive
buyer-behavior oracle.
"""

from .core import (BuyerStrategy, DiscountSequence, GameOutcome, PricingTree,
                   canonical_nodes, evaluate, make_geometric_discount,
                   price_path)
from .distributions import (Beta, TruncatedExponential, Uniform,
                            ValuationDistribution, myerson_price,
                            parse_distribution, static_revenue)
from .errors import (InfeasiblePointError, InvalidParameterError,
                     RegularityError, ResourceLimitError)
from .optimizer import (DiscountOrderWarning, OptimizationResult,
                        discount_rates, maximize_L, project_to_delta,
                        rate_order_satisfied, t2_uniform_qp)
from .oracle import (BestResponse, RevenueCurve, best_response,
                     brute_force_optimal_tree, expected_strategic_revenue,
                     strategic_revenue_curve, strategy_tables)
from .reduction import (ReductionSystem, L_gradient, L_value, build_system,
                        consistent_node_order, order_strategies,
                        reduced_T2_functional, tree_to_v, v_to_tree)
from .schemes import (PatienceOrderWarning, TauStepResult, TruncatedGame,
                      big_deal, constant_myerson, tau_step_optimal, truncate)

__version__ = "0.1.0"

__all__ = [
    "BuyerStrategy", "DiscountSequence", "GameOutcome", "PricingTree",
    "canonical_nodes", "evaluate", "make_geometric_discount", "price_path",
    "Beta", "TruncatedExponential", "Uniform", "ValuationDistribution",
    "myerson_price", "parse_distribution", "static_revenue",
    "InfeasiblePointError", "InvalidParameterError", "RegularityError",
    "ResourceLimitError",
    "DiscountOrderWarning", "OptimizationResult", "discount_rates",
    "maximize_L", "project_to_delta", "rate_order_satisfied", "t2_uniform_qp",
    "BestResponse", "RevenueCurve", "best_response",
    "brute_force_optimal_tree", "expected_strategic_revenue",
    "strategic_revenue_curve", "strategy_tables",
    "ReductionSystem", "L_gradient", "L_value", "build_system",
    "consistent_node_order", "order_strategies", "reduced_T2_functional",
    "tree_to_v", "v_to_tree",
    "PatienceOrderWarning", "TauStepResult", "TruncatedGame", "big_deal",
    "constant_myerson", "tau_step_optimal", "truncate",
]
