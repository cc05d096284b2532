"""Riley polynomials and the cone equation.

A nonabelian SL(2,C) representation of the knot group exists exactly where
the Riley polynomial Phi(x, y) vanishes (x = trace of the meridian image).
At cone angle alpha one sets x = 2 cos(alpha/2); the same locus is cut out
by the real-coefficient cone equation f^2 + A^2 = (1+A^2) g with
A = cot(alpha/2), which is what the volume formulas consume.
"""

import math

from conevol import (
    build_cone_equation,
    build_phi,
    check_lemma_cd,
    solve_cone_equation,
)
from conevol.families import KnotFamily

print("Riley polynomial of the figure-eight (twist knot C(2,2)):")
phi = build_phi(KnotFamily.C2N2, 1)
print("  Phi = P0(z) + x^2 P1(z), coefficients ascending in z:")
print("  P0 =", list(phi.p0), " P1 =", list(phi.p1))
print("  at the parabolic locus x = 2 it factors through z^2 - 3z + 3;")
root = (3 + 1j * math.sqrt(3)) / 2
print(f"  |Phi(2, (3+i sqrt3)/2)| = {abs(phi.eval(2.0, root)):.2e}")

print("\nCone equation of C(2,2) at alpha = pi (A = 0):")
eq = build_cone_equation(KnotFamily.C2N2, 1, 0.0)
print("  moving factor coefficients (ascending):", list(eq.moving_coeffs))
print("  parasite factor coefficients:", list(eq.parasite))
print("  roots:", [f"{r.y:.6f}" for r in solve_cone_equation(eq)],
      " (the golden-ratio pair)")

print("\nThe C(2n,-2n) family carries angle-independent parasite roots with")
print("f^2 = 1; they are split off exactly as gcd(C0, C1):")
eq2 = build_cone_equation(KnotFamily.C2NMINUS2N, 2, 1.0)
print("  parasite factor coefficients:", list(eq2.parasite))
recs = solve_cone_equation(eq2, keep_spurious=True)
for r in recs:
    tag = "parasite" if r.unit_f else "moving"
    print(f"  root {r.y:+.6f}  [{tag}]  residual {r.residual:.1e}")

print("\nSimultaneous-vanishing check (the two zero loci agree pointwise):")
alpha = 1.3
eq3 = build_cone_equation(KnotFamily.C2N3, 2, 1.0 / math.tan(alpha / 2))
for r in solve_cone_equation(eq3, keep_spurious=True)[:3]:
    rep = check_lemma_cd(KnotFamily.C2N3, 2, alpha, r.y)
    print(
        f"  y = {r.y:+.6f}: |Phi| = {abs(rep.phi_value):.1e}, "
        f"|cone residual| = {abs(rep.cone_residual):.1e}, "
        f"consistent = {rep.consistent}"
    )
off = solve_cone_equation(eq3, keep_spurious=True)[0].y + 0.1
rep = check_lemma_cd(KnotFamily.C2N3, 2, alpha, off)
print(f"  0.1 off a root: |Phi| = {abs(rep.phi_value):.2e}, "
      f"|cone residual| = {abs(rep.cone_residual):.2e} (both far from zero)")
