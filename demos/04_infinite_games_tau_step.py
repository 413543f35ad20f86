"""Approaching infinite games with price-freezing truncations.

A tau-step pricing freezes its price after round tau, which makes the
infinite game equivalent to a tau-round one with the discount tails
aggregated into the last weight.  Its optimal value lower-bounds the true
optimum and is within Gamma_S(beyond tau) * E[V] of it, so sweeping tau
squeezes the unknown optimum from both sides.
"""

from postedprice import Uniform, maximize_L, truncate

uniform = Uniform(0, 1)
gb, gs = 0.2, 0.8  # the infinite game is its two geometric rates

print("tail aggregation at tau = 3 (buyer rate 0.2, seller rate 0.8):")
game = truncate(gb, gs, 3)
print(f"  buyer weights  {tuple(round(w, 4) for w in game.buyer.weights)}")
print(f"  seller weights {tuple(round(w, 4) for w in game.seller.weights)}")
print(f"  seller mass beyond round 3: {game.seller_tail:.4f}")

print("\nsqueezing the infinite-game optimum:")
print("  tau   value (lower bound)   upper bound   gap")
for tau in range(2, 7):
    game = truncate(gb, gs, tau)
    res = maximize_L(uniform, game.buyer, game.seller, starts=8, seed=1)
    gap = game.tail_bound(uniform)
    print(f"  {tau}     {res.value:.6f}            {res.value + gap:.6f}"
          f"      {gap:.6f}")

baseline = 0.25 / (1 - gs)
print(f"\nconstant pricing earns {baseline:.4f}; the 6-step optimum already "
      f"earns {res.value:.4f} (x{res.value / baseline:.3f})")
