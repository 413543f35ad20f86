"""A look inside the reduction from pricing trees to the ordered cone.

Strategies sort by their discounted quantity; a completely active tree is
determined by the valuations v_1 <= ... <= v_k at which the buyer switches
between consecutive strategies.  The linear map W carries trees to switch
points and back, and on the cone the expected revenue is the bilinear form
(1 - F(v))' Xi v -- verified here against the exhaustive buyer oracle.
"""

import numpy as np

from postedprice import (DiscountSequence, L_value, PricingTree, Uniform,
                         best_response, build_system,
                         expected_strategic_revenue, tree_to_v, v_to_tree)

gb = DiscountSequence([1.0, 0.2])
gs = DiscountSequence([1.0, 0.8])
system = build_system(gb, gs)
print(f"{system!r}")
print(f"strategy order (by quantity): {system.order.strategies}")
print("Xi =")
print(np.array_str(system.Xi, precision=4, suppress_small=True))

v = np.array([0.3, 0.5, 0.7])
tree = v_to_tree(system, v)
print(f"\nswitch points {v} map to prices {tree.prices()}")
print(f"and back: {tree_to_v(system, tree)}")

uniform = Uniform(0, 1)
print("\nbetween consecutive switch points the buyer plays the next strategy:")
for u, expected in [(0.15, "00"), (0.4, "01"), (0.6, "10"), (0.9, "11")]:
    br = best_response(tree, u, gb, gs)
    print(f"  v = {u:.2f}: plays {br.strategy} (order predicts {expected})")

lv = L_value(system.Xi, uniform, v)
oracle = expected_strategic_revenue(tree, uniform, gb, gs)
print(f"\nbilinear form {lv:.12f} vs enumeration oracle {oracle:.12f}")

# a tree that is NOT completely active falls outside the cone
up_front = PricingTree(2, {"": 0.75, "0": 3.0, "1": 0.0})
bad_system = build_system(DiscountSequence([1.0, 0.5]), DiscountSequence([1.0, 0.5]))
print(f"\npay-up-front tree maps to {tree_to_v(bad_system, up_front)} -- "
      "unordered, because one strategy is never a best response")
