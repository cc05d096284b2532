"""Transition angles across the three families.

Every hyperbolic member has a critical angle a_K in [2*pi/3, pi) where the
geometric conjugate root pair of the cone equation (the one with the least
real part) collides onto the real axis: hyperbolic below, Euclidean at,
spherical above (up to 2*pi - a_K).
The torus-knot members (trefoils in disguise) have no such transition and
are reported as degenerate.
"""

import math

from conevol import collision_root, critical_angle
from conevol.errors import NotBracketedError
from conevol.families import KnotFamily, is_torus_member

print(f"{'family':8s} {'n':>3s}  {'alpha_K':>14s}  {'alpha_K/pi':>10s}  "
      f"{'collided root':>14s}")
for family in KnotFamily:
    for n in (-3, -2, -1, 1, 2, 3):
        if is_torus_member(family, n):
            print(f"{family.value:8s} {n:+3d}  {'(torus knot: no hyperbolic regime)'}")
            continue
        try:
            a_k = critical_angle(family, n)
            y_star = collision_root(family, n)
            print(f"{family.value:8s} {n:+3d}  {a_k:14.10f}  {a_k/math.pi:10.6f}  "
                  f"{y_star:+14.8f}")
        except NotBracketedError as exc:
            print(f"{family.value:8s} {n:+3d}  bracketing failed: {exc}")

print("\nNotes:")
print("  * C(2,2) (the figure-eight) attains the lower bound 2*pi/3 exactly.")
print("  * C(2n,-2n) and C(-2n,2n) are mirror images: identical angles.")
print("  * the collision root is reused as the anchor of the hyperbolic")
print("    integration contour and the seed of the spherical pair.")
