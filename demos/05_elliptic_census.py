"""Counting curve pairs Y^2 = X^3 + aX + b in the same class mod f.

Pairs (a, b), (c, d) are isomorphic mod f when a*t^4 = c and b*t^6 = d
for some unit t; that forces the invariant congruence a^3 d^2 = c^3 b^2,
but not conversely (quadratic twists).  With box coefficients, class
sizes are governed by N_lambda = #{(a, b): a^3 = lambda b^2 mod f}, which
the family (x^2, x^3) keeps from dropping below ~|I|^(1/3).
"""

from polybox import (GF, PigeonInstance, Poly, ResidueRing,
                     count_invariant_pairs, count_nlambda, extremal_count,
                     invariant_congruent, iso_witness, ninth_window_scan,
                     ninth_window_tau_plan, one, pigeonhole_multiplier,
                     poly_text, random_irreducible, small_coeff_model, zero,
                     zero_interval)
from polybox.poly import T as T_of, frac_dist

F2 = GF(2)
F3 = GF(3)
t = T_of(F2)

print("== Witness and invariant ==")
f = Poly(F2, [1, 1, 0, 0, 1])
ring = ResidueRing(f)
c, d = (t ** 4) % f, (t ** 6) % f
w = iso_witness(one(F2), one(F2), c, d, ring)
print(f"(1, 1) ~ ({poly_text(c)}, {poly_text(d)}) mod {poly_text(f)}: "
      f"t = {poly_text(w)}")
print(f"invariant congruence holds: "
      f"{invariant_congruent(one(F2), one(F2), c, d, ring)}")

# a quadratic twist: invariant holds, no witness exists
fr = ResidueRing(Poly(F3, [1, 0, 1]))  # T^2 + 1 over F_3
squares = {fr.mul(x, x).coeffs for x in fr.elements() if x}
g = next(x for x in fr.elements() if x and x.coeffs not in squares)
cw, dw = fr.mul(g, g), fr.mul(fr.mul(g, g), g)
print(f"twist by non-square {poly_text(g)}: invariant = "
      f"{invariant_congruent(one(F3), one(F3), cw, dw, fr)}, witness = "
      f"{iso_witness(one(F3), one(F3), cw, dw, fr)}")
print()

print("== Census in a box ==")
fT = T_of(F2)
I0 = zero_interval(F2, 0)
print(f"N_1 over the n = 0 box mod T: {count_nlambda(I0, one(F2), fT)}")
print(f"pairs satisfying the invariant congruence: "
      f"{count_invariant_pairs(I0, fT)} of {I0.size ** 4} quadruples")
print()

print("== Class scan in the |I|^9 <= |f| window ==")
f18 = random_irreducible(F2, 18, 5)
I1 = zero_interval(F2, 1)
rep = ninth_window_scan(I1, f18)
print(f"|I| = {rep.size_i}, |f| = {rep.norm_f}, classes realized: "
      f"{len(rep.rows)}")
print(f"max class size {rep.max_count}; ratio to |I|^(1/3): "
      f"{rep.ratio_to_cuberoot:.3f}")
print(f"extremal family floor: N_1 >= {extremal_count(I1)} (pairs (x^2, x^3))")
print()

print("== The small-remainder multiplier ==")
fp = Poly(F2, [1, 1, 1])
inst = PigeonInstance(f=fp, x_list=(t, t), tau_list=(2, 1))
tm = pigeonhole_multiplier(inst)
print(f"f = {poly_text(fp)}, make T*t small twice: t = {poly_text(tm)}; "
      f"distances: {[frac_dist(x * tm, fp) for x in inst.x_list]} "
      f"< bounds {[2 ** tau for tau in inst.tau_list]}")
print()

print("== Reducing the class congruence to small coefficients ==")
f27 = random_irreducible(F2, 27, 1)
I2 = zero_interval(F2, 2)
taus = ninth_window_tau_plan(I2, f27)
model = small_coeff_model(one(F2), zero(F2), f27, taus, box=I2)
print(f"deg f = 27, box n = 2, remainder-norm exponents: {taus}")
print(f"multiplier t = {poly_text(model.t)}")
print(f"coefficient norms: {[fi.norm for fi in model.fs]}")
print(f"Z bound over the box: {model.z_bound} "
      f"(0 means the congruence becomes an exact equation)")
agree = all(model.model_holds(x, y) == model.original_holds(x, y)
            for x in I2 for y in I2)
print(f"model and original congruence agree on the whole box: {agree}")
