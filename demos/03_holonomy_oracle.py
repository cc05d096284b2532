"""The matrix oracle: words, the defining relation, and the complex length.

The library never trusts its own Chebyshev shortcuts blindly: a literal
2x2-matrix layer evaluates the group words and certifies every selected
root.  This script walks one figure-eight example end to end.
"""

import cmath
import math

import numpy as np

from conevol import (
    build_matrices,
    classify,
    complex_length,
    f_identity_gap,
    longitude_eigenvalue,
    longitude_matrix,
    relation_residual,
)
from conevol.families import ConeManifoldSpec, KnotFamily

family, n, alpha = KnotFamily.C2N2, 1, 0.9
spec = ConeManifoldSpec(family, n, alpha)
res = classify(spec)
y0 = res.roots[0]
m = cmath.exp(0.5j * alpha)

print(f"figure-eight at cone angle {alpha}:")
print(f"  selected root y0 = {y0:.8f} (regime {res.regime.value})")

A, B = build_matrices(family, m, y0)
print("  meridian image A =\n", np.round(A, 6))
print("  second generator B =\n", np.round(B, 6))
print(f"  det A = {np.linalg.det(A):.12f}, det B = {np.linalg.det(B):.12f}")

print(f"\n  defining relation residual |rho(w a) - rho(b w)| = "
      f"{relation_residual(family, n, m, y0):.2e}")
print(f"  at a random non-root it is O(1): "
      f"{relation_residual(family, n, m, 1.7 + 0.3j):.3f}")

ell = longitude_eigenvalue(family, n, m, y0)
print(f"\n  longitude eigenvalue ell = {ell:.8f}, |ell| = {abs(ell):.8f}")
L = longitude_matrix(family, n, m, y0)
print(f"  literal reversed-word product: lower-left {abs(L[1,0]):.1e}, "
      f"corner matches ell to {abs(L[1,1] - ell):.1e}")

gamma = complex_length(family, n, alpha, y0, ell)
print(f"\n  complex length gamma = {gamma:.8f}")
print(f"  real length l = Re gamma = {gamma.real:.8f} = 2 log|ell| = "
      f"{2 * math.log(abs(ell)):.8f}")
print(f"  trig identity gap: {f_identity_gap(family, n, m, y0, ell):.2e}")

print("\nOn the spherical side the longitude eigenvalue sits on the unit circle:")
spec_s = ConeManifoldSpec(family, n, 2.8)
res_s = classify(spec_s)
m_s = cmath.exp(0.5j * 2.8)
for y in res_s.roots:
    e = longitude_eigenvalue(family, n, m_s, complex(y))
    print(f"  root {y:+.6f}: |ell| - 1 = {abs(e) - 1:+.2e}")
