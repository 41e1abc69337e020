"""Layer probes of the traced run: fixed-size timings of single core calls.

Each probe times one call three times on seeded inputs and keeps the median,
as nanoseconds per point.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from pcretract import NormKind, build_construction, domain_sampler, norm, piece
from pcretract.core import as_points

NORMS = (("p1", 1.0), ("p1_5", 1.5), ("p2", 2.0), ("max", math.inf), ("p400", 400.0))
NORM_ROWS = 1_000_000
CONTAINS_POINTS = 10_000
CONTAINS_K = (10, 100, 1000)
REPEATS = 3


def _ns_per_point(fn, points) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / points * 1e9


def norm_probes(seed: int) -> dict:
    """``norm`` of a 1e6 x 3 gaussian batch at each probed p."""
    batch = np.random.default_rng(seed).normal(size=(NORM_ROWS, 3))
    return {
        f"core.norm.{label}.ns_per_point": _ns_per_point(lambda: norm(batch, NormKind(p)), NORM_ROWS)
        for label, p in NORMS
    }


def contains_probes(seed: int) -> dict:
    """``piece(k).contains`` on 1e4 domain samples of the two diagonal maps;
    the piece is built outside the timed call."""
    out = {}
    for construction, dim in (("fractional", 1), ("open-ball", 3)):
        m = build_construction(construction, dim, NormKind(2.0))
        pts = as_points(domain_sampler(m, seed).draw(CONTAINS_POINTS), dim)
        for k in CONTAINS_K:
            desc = piece(m.witness, k)
            out[f"core.contains.{construction}.k{k}.ns_per_point"] = _ns_per_point(
                lambda: desc.contains(pts, 1e-9), CONTAINS_POINTS
            )
    return out
