"""The "big deal": charge the whole discounted value at round one.

The tree prices the first round at Gamma_B * p*, gives the goods away
after an acceptance, and prices prohibitively after a rejection.  The
strategic buyer therefore accepts exactly when v > p*, which makes the
scheme collect Gamma_B * H(p*) -- tied with constant pricing under equal
discounts, and strictly better whenever the seller is the less patient
side (pointwise smaller seller weights), by the factor Gamma_B / Gamma_S.
"""

from postedprice import (Uniform, best_response, big_deal, constant_myerson,
                         expected_strategic_revenue, myerson_price, truncate)

uniform = Uniform(0, 1)
p_star, h_star = myerson_price(uniform)

rate = 0.5  # infinite game, Gamma = 1 / (1 - rate) = 2
game = truncate(rate, rate, 10)  # tail aggregation keeps Gamma
tree, revenue = big_deal(uniform, game.buyer, game.seller)
print(f"first price {tree.price(''):.4f}, rejection price {tree.price('0'):.4f}, "
      f"revenue {revenue:.4f} (= Gamma * H(p*) = {h_star / (1 - rate):.4f})")

print("\nbuyer behavior around the threshold p* = %.3f:" % p_star)
for v in (0.40, 0.49, 0.51, 0.60):
    br = best_response(tree, v, game.buyer, game.seller)
    word = "accepts" if br.strategy[0] == "1" else "rejects"
    print(f"  v = {v:.2f}: {word} the deal "
          f"(surplus {br.surplus:+.4f}, revenue {br.revenue:.4f})")

oracle = expected_strategic_revenue(tree, uniform, game.buyer, game.seller)
print(f"\nthe enumeration oracle agrees with the closed form: {oracle:.10f}")

print("\nless patient seller: the up-front trick beats constant pricing")
for gs_rate, gb_rate in [(0.2, 0.5), (0.2, 0.8), (0.5, 0.9)]:
    game = truncate(gb_rate, gs_rate, 10)
    _, bd = big_deal(uniform, game.buyer, game.seller)
    _, const = constant_myerson(uniform, game.seller)
    print(f"  seller rate {gs_rate}, buyer rate {gb_rate}: "
          f"ratio {bd / const:.4f} (= Gamma_B/Gamma_S = {(1 - gs_rate) / (1 - gb_rate):.4f})")
