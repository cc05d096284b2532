"""The polynomial layer: S_k, its identities, and the rational pair (f, g).

Everything downstream (Riley polynomials, cone equations, volume integrands)
is assembled from the sequence S_0 = 1, S_1 = y, S_k = y S_{k-1} - S_{k-2}.
This script shows the exact-coefficient view, the identity web, and the
family-specific g.
"""

import math

import numpy as np

from conevol import eval_S, eval_S_prime, eval_f, eval_g
from conevol.exactpoly import s_poly
from conevol.families import KnotFamily

print("Exact coefficient lists (index, coefficients of y^0, y^1, ...):")
for k in (-2, -1, 0, 1, 2, 3, 4, 5):
    print(f"  S_{k:+d}: {s_poly(k)}")

print("\nAt y = 2 the recurrence degenerates to S_k(2) = k + 1 (exact integers):")
print(" ", [eval_S(k, 2) for k in range(8)])

print("\nTrigonometric closed form S_k(2 cos t) = sin((k+1)t)/sin t:")
t = math.pi / 7
for k in (3, 6):
    lhs = eval_S(k, 2 * math.cos(t))
    rhs = math.sin((k + 1) * t) / math.sin(t)
    print(f"  k={k}: recurrence {lhs:.12f}  closed form {rhs:.12f}")

print("\nThe three-term identity S_k^2 - y S_k S_{k-1} + S_{k-1}^2 = 1")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(1000):
    y = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
    for k in range(-6, 9):
        a, b = eval_S(k, y), eval_S(k - 1, y)
        res = abs(a * a - y * a * b + b * b - 1)
        worst = max(worst, res / max(1.0, abs(a * a), abs(y * a * b)))
print(f"  holds to scaled residual {worst:.2e} over 1000 random complex points")

print("\nf_n and the family-dependent g_n at y = 3, n = 1:")
print(f"  f_1(3)            = {eval_f(1, 3.0):+.6f}")
for family in KnotFamily:
    print(f"  g_1(3) {family.value:7s}  = {eval_g(family, 1, 3.0):+.6f}")

print("\nDerivatives come from the differentiated recurrence, e.g.")
y0 = 1.5 + 0.25j
h = 1e-6
fd = (eval_S(5, y0 + h) - eval_S(5, y0 - h)) / (2 * h)
print(f"  S_5'({y0}) = {eval_S_prime(5, y0):.10f}")
print(f"  finite difference  {fd:.10f}")
