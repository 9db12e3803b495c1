"""Hardy inequalities for the radial Gaussian weight r^(n-1) exp(-r^2/2).

For a profile u, three modular integrals are compared:

    K = int M(r|u|) dmu_n,  L = int M(|u|) dmu_n,  G = int M(|u'|) dmu_n.

The sharp two-branch bound gives K <= max-of-two right-hand sides; its
linear weakening K <= C1 L + C2 G comes with the explicit constants
C1 = 2^(D-1) (D+n-2)^(D/2), C2 = 2^(D-1) D^D when D + n >= e + 2, and
doubling alone still gives (much larger) linear constants.
"""

from orlicz_hardy import (
    ExtremalParams,
    check_alternative,
    check_convex_case,
    check_linear,
    extremal_function,
    linear_constants,
    modular_triple_radial,
    power_nfunction,
)

nf = power_nfunction(3)
n = 2
u = extremal_function(ExtremalParams(0.5, 3, n))
tri = modular_triple_radial(u, nf, n)
print(f"modulars for u = exp(r^2/12), M = r^3, n = {n}:")
print(f"  K = {tri.K.value:.6f}, L = {tri.L.value:.6f}, G = {tri.G.value:.6f}")

rep = check_alternative(tri, 3.0, 3.0, n)
print(f"two-branch bound: verdict={rep.verdict}, branch={rep.details['branch_held']}, "
      f"slack={rep.slack:.4f}")

c1, c2 = linear_constants(3.0, 3.0, n)
rep = check_linear(tri, c1, c2)
print(f"linear bound with C1={c1:.3f}, C2={c2:.0f}: verdict={rep.verdict}, "
      f"slack={rep.slack:.4f}")


print()
print("doubling-only route (no lower growth exponent): constants exist but are")
print("astronomically generous, the point is existence")
rep = check_convex_case(tri, 3.0, n)
print(f"  C1 = {rep.constants_used['C1']:.3e}, C2 = {rep.constants_used['C2']:.3e}, "
      f"verdict = {rep.verdict}")
print(f"  proof parameters: eps = {rep.constants_used['eps']}, "
      f"kappa = {rep.constants_used['kappa']:.4f}")
