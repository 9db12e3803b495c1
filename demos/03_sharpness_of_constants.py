"""How good are the explicit Hardy constants?  The family u_a = exp(a r^2/(2p))
has closed-form Gamma-moments, and driving a -> 1 squeezes the constants.

Three facts fall out:
  * with C2 pinned at p^p, the required C1 blows up  (no finite rescue),
  * C1 below 2^(p/2) Gamma((n+p)/2) / Gamma(n/2) is impossible (a = 0),
  * that lower bound approaches the (n+p-2)^(p/2) coefficient of the
    two-branch bound as n grows (Stirling), so the bound is asymptotically tight.
"""

from orlicz_hardy import (
    ExtremalParams,
    c1_lower_bound,
    c2_infeasibility_scan,
    extremal_moments,
    stirling_ratio,
)

p, n = 4, 1
print(f"required C1 when C2 = p^p = {p ** p}, for M = r^{p}, n = {n}:")
alphas = [0.0, 0.5, 0.9, 0.99, 0.999]
for alpha, req in zip(alphas, c2_infeasibility_scan(p, n, alphas)):
    print(f"  alpha = {alpha:5.3f}:  C1 >= {req:12.2f}")
print(f"  (lower bound at alpha = 0: {c1_lower_bound(p, n):.3f})")

print()
print("p = 2 exactness: (K - 4G)/L = n(1 + alpha), approaching 2n as alpha -> 1,")
print("so C1 = 2n is optimal once C2 = 4:")
for alpha in (0.5, 0.9, 0.99, 0.999):
    K, L, G = (m.value for m in extremal_moments(ExtremalParams(alpha, 2, 3)))
    print(f"  alpha = {alpha:5.3f}:  (K - 4G)/L = {(K - 4 * G) / L:.6f}   (2n = 6)")

print()
print("Stirling: 2^(p/2) Gamma((n+p)/2) / ((n+p-2)^(p/2) Gamma(n/2)) -> 1")
for nn in (10, 100, 10_000, 1_000_000):
    print(f"  n = {nn:9d}:  ratio = {stirling_ratio(4, nn):.8f}")
