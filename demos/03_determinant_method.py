"""The determinant engine: collisions mod f force divisibility.

Pick a family W of forms containing the constant 1 and a tuple of curve
points.  The determinant det(F_i(P_j)) is a polynomial; whenever two
tuple entries agree mod f, two columns agree mod f, so f divides the
determinant -- kappa collisions force f^kappa.  Averaged over all tuples
this is the mechanism that makes large point sets contradict themselves.
"""

from polybox import (GF, Poly, bivar, enumerate_box_points,
                     mean_distinct_identity, residue_stats,
                     verify_ord_inequality, wset_determinant, wset_grid,
                     wset_linear, zero_interval)
from polybox.poly import T as T_of, valuation

F2 = GF(2)
t = T_of(F2)

print("== W = {1, X, Y}: determinants of point triples ==")
W = wset_linear(F2)
z, o = Poly(F2, []), Poly(F2, [1])
triple = [(z, z), (o, z), (z, o)]
print(f"det at (0,0),(1,0),(0,1): {wset_determinant(W, triple).coeffs}")
collide = [(z, z), (t, z), (z, o)]
d = wset_determinant(W, collide)
print(f"det at (0,0),(T,0),(0,1): {d!r}; (0,0) = (T,0) mod T forces "
      f"T^1 | det: valuation = {valuation(d, t)}")
print()

print("== All tuples from a real point set ==")
curve = bivar(F2, {(0, 2): 1, (3, 0): 1, (1, 0): 1, (0, 0): 1})
S = enumerate_box_points(curve, zero_interval(F2, 3))
print(f"|S| = {len(S)} points of Y^2 = X^3 + X + 1 in the n = 3 box")
f = Poly(F2, [1, 1, 1])
rep = verify_ord_inequality(wset_grid(F2, 1, 1), S, f)
print(f"W-grid (1,1): omega = {rep.omega}, total degree = {rep.d_w}")
print(f"tuples: {rep.tuples_total} total, {rep.tuples_admissible} admissible")
print(f"sum ord_f(det) = {rep.sum_ord} >= sum kappa = {rep.sum_kappa}: "
      f"pass = {rep.passed}")
print()

print("== The exact expectation identity ==")
ident = mean_distinct_identity(S, f, omega=3)
print(f"mean distinct residues over S^3: {ident.lhs} "
      f"= sum(1 - (1 - rho)^3): {ident.rhs} -> {ident.passed}")
print()

print("== Residue profile and the Cauchy floor ==")
prof = residue_stats(S, f)
print(f"distinct residues: {prof.distinct} of |f| = {f.norm}; "
      f"alpha = {prof.density}")
print(f"sum rho^2 = {prof.sum_squared_weights()} >= "
      f"1/(alpha |f|) = {prof.cauchy_lower_bound()}: {prof.cauchy_ok()}")
