"""Gaussian Landau-Kolmogorov inequalities, certified as fitted envelopes.

The gradient modular is bounded by Hessian and function modulars,

    int M(|grad u|) dgamma <= C1 int M(theta |hess u|) dgamma
                              + C2 int M(|u|/theta) dgamma   for theta in (0, 1],

and in norm form ||grad u|| <= C1~ sqrt(||hess u|| ||u||) + C2~ ||u||.
No closed-form constants exist at this generality, so the toolkit computes
each member's terms and norms once, fits the smallest grid pair covering the
declared corpus from them, and reports the binding member.  Each member is
checked for every theta at once: the growth indices bound the right side
below from its theta = 1 terms, and that bound is least at a theta* in
closed form.  The derivation assumes the Gaussian Hardy
inequality; each modular check records that check as provenance.
"""

from orlicz_hardy import (
    check_lk_modular,
    fit_lk_modular_envelope,
    fit_lk_norm_envelope,
    hardy_provenance,
    lk_modular_terms,
    lk_norm_triple,
    load_manifest,
    modular_triple_nd,
)

manifest = load_manifest()
nf = manifest.nfunc("p2")
n = 2
fields = [f.instantiate(n) for f in manifest.field_functions.values()
          if f.compatible(n)]
print(f"corpus at n = {n}: {[f.label for f in fields]}")

# each member's K, L, G triple: the modular terms and the Hardy gate read it;
# the theta = 1 terms are also the three norms' modulars at K = 1
triples = {u.label: modular_triple_nd(u, nf) for u in fields}
terms = {u.label: lk_modular_terms(u, nf, triples[u.label]) for u in fields}
norms = {u.label: lk_norm_triple(u, nf, terms[u.label]) for u in fields}

# the fits read those numbers and integrate nothing
fit_mod = fit_lk_modular_envelope(terms, nf)
print(f"\nmodular envelope: C1 = {fit_mod.c1:g}, C2 = {fit_mod.c2:g}, "
      f"uniform over theta in (0, 1]:")
for u in fields:
    rep = check_lk_modular(terms[u.label], nf, fit_mod.c1, fit_mod.c2,
                           provenance=hardy_provenance(u, nf, n, triples[u.label]))
    print(f"  {u.label:10s} theta* = {rep.theta:.4f}   lhs = {rep.lhs:8.4f}"
          f"   min rhs = {rep.rhs:8.4f}   {rep.verdict}"
          f"   (Hardy {rep.provenance['hardy_form']}: {rep.provenance['hardy_verdict']})")

fit = fit_lk_norm_envelope(norms)
print(f"\nnorm-form envelope for M = r^2: C1~ = {fit.c1:g}, C2~ = {fit.c2:g} "
      f"(binding member: {fit.binding})")
# each norm comes with the bracket [lo, hi] that holds the exact one
for label, (r, s, t) in norms.items():
    print(f"  {label:10s} ||grad u|| = {r.value:8.4f}   sqrt(||hess|| ||u||) = {s.value:8.4f}"
          f"   ||u|| = {t.value:8.4f}   (||u|| in [{t.lo:.6g}, {t.hi:.6g}])")
