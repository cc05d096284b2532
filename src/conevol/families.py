"""Knot families and cone-manifold specifications.

The library covers three infinite families of two-bridge knots, written in
Conway notation with a nonzero twist parameter n:

* ``C2N2``       -- C(2n, 2), the twist knots (C(2, 2) is the figure-eight);
* ``C2N3``       -- C(2n, 3);
* ``C2NMINUS2N`` -- C(2n, -2n).

A handful of members are torus knots (two-bridge fraction with q = +/-1 mod p)
and carry no hyperbolic cone structure: C(2n, 2) at n = -1 and C(2n, -2n) at
n = +/-1 are trefoils.  Representation-level operations work for them, but
regime classification and volumes are undefined and raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class KnotFamily(Enum):
    C2N2 = "c2n2"
    C2N3 = "c2n3"
    C2NMINUS2N = "c2nm2n"

    @property
    def is_odd_presentation(self) -> bool:
        """True for C(2n, 2p+1)-type words (meridian pair (ab)); False for (ab^-1)."""
        return self is KnotFamily.C2N3

    def word_exponent(self, n: int) -> int:
        """Bracket exponent p in the defining two-generator word for twist n."""
        if self is KnotFamily.C2N3:
            return 1  # C(2n, 2p+1) with 2p+1 = 3
        if self is KnotFamily.C2N2:
            return 1  # C(2n, 2p) with 2p = 2
        return -n  # C(2n, 2p) with 2p = -2n


# (a, b, c, sign) of w = (y-2)^a S_{n-1}^b and r = sign (S_n - S_{n-1})^c, so
# that g = -r / (D^2 w) with D = (y-2) S_{n-1}, and the log argument of the
# volume integrand is R = -(N^2 + A^2 D^2) w / ((1+A^2) r)
R_EXPONENTS = {
    KnotFamily.C2N3: (1, 2, 2, 1),  # g = -(S_n - S_{n-1})^2 / ((y-2)^3 S_{n-1}^4)
    KnotFamily.C2N2: (0, 1, 1, 1),  # g = -(S_n - S_{n-1}) / ((y-2)^2 S_{n-1}^3)
    KnotFamily.C2NMINUS2N: (0, 2, 0, -1),  # g = 1 / ((y-2)^2 S_{n-1}^4)
}


def parse_family(token: str) -> KnotFamily:
    """Map a CLI token (c2n2 | c2n3 | c2nm2n) to a family, case-insensitively."""
    try:
        return KnotFamily(token.strip().lower())
    except ValueError:
        valid = ", ".join(f.value for f in KnotFamily)
        raise ValueError(f"unknown family {token!r}; expected one of: {valid}") from None


# Torus-knot members: no hyperbolic regime, no critical angle.
_DEGENERATE = {
    (KnotFamily.C2N2, -1),
    (KnotFamily.C2NMINUS2N, 1),
    (KnotFamily.C2NMINUS2N, -1),
}


def is_torus_member(family: KnotFamily, n: int) -> bool:
    """True if C(family, n) is a torus knot (trefoil) with no hyperbolic structure."""
    return (validate_family(family), n) in _DEGENERATE


def validate_family(family: KnotFamily) -> KnotFamily:
    """family itself; ValueError for anything that is not a KnotFamily (a
    token such as "c2n2" goes through parse_family first)."""
    if not isinstance(family, KnotFamily):
        raise ValueError(f"family must be a KnotFamily, got {family!r}")
    return family


def validate_twist(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("twist parameter n must be an integer")
    if n == 0:
        raise ValueError("n must be nonzero")
    return n


@dataclass(frozen=True)
class ConeManifoldSpec:
    """A cone-manifold: family member (family, n) with cone angle alpha in (0, 2*pi)."""

    family: KnotFamily
    n: int
    alpha: float

    def __post_init__(self):
        validate_family(self.family)
        validate_twist(self.n)
        if not (0.0 < self.alpha < 2.0 * math.pi):
            raise ValueError(f"cone angle must lie in (0, 2*pi), got {self.alpha}")
        if math.tan(0.5 * self.alpha) == 0.0:
            raise ValueError(f"cone angle {self.alpha} is too small: tan(alpha/2) is 0")

    @property
    def cot_half(self) -> float:
        """A = cot(alpha/2), the only way the angle enters the cone equation."""
        return 1.0 / math.tan(0.5 * self.alpha)
