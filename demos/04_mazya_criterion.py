"""The Maz'ya characterization of weighted Hardy-transform inequalities.

B = sup_{r>a} mu([r,oo))^(1/q) ( int_a^r (dnu/dx)^(-1/(p-1)) )^((p-1)/p)
is finite exactly when the transform inequality holds.  For the classical
pair (dmu = x^-2 dx, dnu = dx, p = q = 2) the objective is identically 1.
For the Gaussian pair (dmu = r^p dmu_n, dnu = dmu_n) the inner integrand
behaves like x^(-(n-1)/(p-1)) at zero, so B is finite iff p > n -- which
the numeric divergence detector reproduces without being told.
"""

from orlicz_hardy import classical_pair, gaussian_hardy_pq, mazya_B

res = mazya_B(classical_pair())
print(f"classical pair: B = {res.B:.9f} at r = {res.argmax_r:.3g} "
      f"(objective is flat)")

print()
print("Gaussian pair verdicts over the (p, n) grid:")
print("        n=1        n=2        n=3")
for p in (1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
    row = []
    for n in (1, 2, 3):
        verdict, r = gaussian_hardy_pq(p, n)
        row.append(f"{verdict:9s}" if r.divergent else f"B={r.B:7.3f}")
    print(f"  p={p:3.1f}  " + "  ".join(row))
print("(finite exactly above the diagonal p > n)")
