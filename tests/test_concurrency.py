"""Concurrent evaluation matches serial evaluation exactly.

Pure operations plus the per-member set-up, which the module lock guards:
a thread pool hammering one member across both regimes must reproduce the
serial volumes bit for bit, including when several threads ask for the
member before its set-up is done.  After set-up geometry keeps no state.
"""

import math
from concurrent.futures import ThreadPoolExecutor

from conevol import geometry
from conevol.families import ConeManifoldSpec, KnotFamily
from conevol.volume import compute_volume


def test_parallel_sweep_matches_serial():
    family, n = KnotFamily.C2N3, 2
    geometry.clear_caches()
    a_lo, a_hi, count = 0.2, 3.4, 28
    alphas = [a_lo + (a_hi - a_lo) * i / (count - 1) for i in range(count)]

    def one(alpha):
        try:
            return compute_volume(ConeManifoldSpec(family, n, alpha)).volume
        except ValueError:
            return None  # beyond the band

    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(one, alphas))

    geometry.clear_caches()
    serial = [one(a) for a in alphas]
    assert parallel == serial
    assert sum(v is not None for v in serial) > count // 2


def test_parallel_distinct_members():
    geometry.clear_caches()
    jobs = [
        (KnotFamily.C2N2, 1, 1.0),
        (KnotFamily.C2N2, 2, 2.8),
        (KnotFamily.C2N3, 1, 0.7),
        (KnotFamily.C2N3, -1, math.pi),
        (KnotFamily.C2NMINUS2N, 2, 3.0),
        (KnotFamily.C2NMINUS2N, -2, 0.4),
    ]

    def one(job):
        family, n, alpha = job
        return compute_volume(ConeManifoldSpec(family, n, alpha)).volume

    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(one, jobs))
    geometry.clear_caches()
    serial = [one(j) for j in jobs]
    assert parallel == serial
