"""The oracle web: every volume is certified three independent ways.

1. the contour integral (exact formula, branch-tracked logarithm);
2. the Schlaefli length integral (roots selected by order + singular length,
   no contour machinery at all);
3. structural invariants: symmetry about pi, path independence, endpoint
   derivative = -/+ half the geodesic length.
"""

import math

from conevol import classify, compute_volume, critical_angle, volume_hyperbolic
from conevol.families import ConeManifoldSpec, KnotFamily

print("contour vs Schlaefli, a spread of members and angles:")
for family, n, alpha in [
    (KnotFamily.C2N2, 1, 1.2), (KnotFamily.C2N2, -2, 0.7),
    (KnotFamily.C2N3, 2, 1.8), (KnotFamily.C2N3, -1, 2.5),
    (KnotFamily.C2NMINUS2N, 2, 0.5), (KnotFamily.C2NMINUS2N, 3, 3.1),
]:
    r = compute_volume(ConeManifoldSpec(family, n, alpha), cross_check=True)
    print(f"  {family.value:7s} n={n:+d} alpha={alpha:4.2f} [{r.regime.value[:4]}]: "
          f"contour {r.volume:.12f}  schlaefli {r.schlafli_volume:.12f}  "
          f"gap {abs(r.volume - r.schlafli_volume):.1e}")

print("\nmirror symmetry Vol(alpha) = Vol(2*pi - alpha) on the spherical band:")
for alpha in (2.3, 2.9, 3.4):
    v1 = compute_volume(ConeManifoldSpec(KnotFamily.C2N2, 1, alpha)).volume
    v2 = compute_volume(ConeManifoldSpec(KnotFamily.C2N2, 1, 2 * math.pi - alpha)).volume
    print(f"  alpha={alpha}: {v1:.12f} vs {v2:.12f}  gap {abs(v1 - v2):.1e}")

print("\npath independence (mid-contour control point displaced by +/- 0.1i):")
spec = ConeManifoldSpec(KnotFamily.C2N3, 1, 1.0)
y0 = classify(spec).roots[0]
base = volume_hyperbolic(spec, y0).volume
for shift in (0.1j, -0.1j):
    v = volume_hyperbolic(spec, y0, anchor_shift=shift).volume
    print(f"  shift {shift}: gap {abs(v - base):.1e}")

print("\nSchlaefli derivative dVol/dalpha = -l/2 (hyperbolic), +l/2 (spherical):")
h = 1e-4
for family, n, alpha in [(KnotFamily.C2N2, 1, 1.0), (KnotFamily.C2N2, 1, 2.6)]:
    a_k = critical_angle(family, n)
    sign = -1 if alpha < a_k else +1
    vp = compute_volume(ConeManifoldSpec(family, n, alpha + h)).volume
    vm = compute_volume(ConeManifoldSpec(family, n, alpha - h)).volume
    fd = (vp - vm) / (2 * h)
    r = compute_volume(ConeManifoldSpec(family, n, alpha))
    print(f"  alpha={alpha}: finite difference {fd:+.8f}  "
          f"{'-' if sign < 0 else '+'}l/2 = {sign * r.l_alpha / 2:+.8f}")
