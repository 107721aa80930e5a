"""Counting curve points over residue fields F_q[T]/(f).

For irreducible f the residue ring is a field with |f| = q^deg(f)
elements.  A well-behaved plane curve has about |f| affine points there;
the window check quantifies "about" as |count - |f|| <= C sqrt(|f|).
A reducible curve like X*Y = 0 escapes the window, showing why the
hypothesis matters.
"""

from polybox import (GF, Poly, bivar, count_points_mod, monic_irreducibles,
                     weil_window_check)
from polybox.curves import count_points_by_rows
from polybox.poly import T as T_of

F3 = GF(3)
t = T_of(F3)

print("== A smooth Weierstrass curve: Y^2 = X^3 + T*X + 1 over F_3[T] ==")
curve = bivar(F3, {(0, 2): 1, (3, 0): -1 % 3, (1, 0): -t, (0, 0): -1 % 3})
print("f (monic irreducible)    |f|   count   |count - |f||   2*sqrt|f|")
for f in monic_irreducibles(F3, 4):
    rep = weil_window_check(curve, f, C=2)
    mark = "ok" if rep.passed else "FAIL"
    print(f"{str(f.coeffs):<24} {rep.size:<5d} {rep.count:<7d} "
          f"{abs(rep.count - rep.size):<13d} {rep.bound:<10.2f} {mark}")
print()

print("== The reducible curve X*Y = 0 breaks out of the window ==")
xy = bivar(F3, {(1, 1): 1})
for f in list(monic_irreducibles(F3, 3)):
    rep = weil_window_check(xy, f, C=2)
    print(f"deg f = {f.degree}: count = {rep.count} = 2|f| - 1 = "
          f"{2 * rep.size - 1}, within window: {rep.passed}")
print()

print("== Counting by x and by y agree ==")
f = Poly(F3, [1, 0, 1])  # T^2 + 1
a = count_points_mod(curve, f)        # separable: a histogram of X^3+TX+1
b = count_points_by_rows(curve, f)    # per y, the roots in x
print(f"mod T^2+1: histogram = {a}, by rows = {b}")
