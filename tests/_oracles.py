"""Reference code the tests check the package against; none of it is part of
the package.

``reference_pairs`` draws continuity pairs one piece at a time, as the
continuity check did before it was batched.  ``lipschitz_oracle`` and
``sup_abs`` are brute-force maxima over such pairs and over given points.
``descriptor_from_json`` reads back the descriptor JSON that
``pcretract witness`` prints (see docs/schemas.md).
``retract_draw``, ``domain_draw``, ``ball_draw`` and ``operator_sets`` draw
the point sets the checks take, from the samplers run_suite draws them with.
"""

import math

import numpy as np

from pcretract.core import (
    DiagonalBands,
    FiniteUnion,
    Interval,
    NormBand,
    NormKind,
    SetDescriptor,
    Singleton,
    norm,
    piece,
)
from pcretract.verification import DOMAIN_RADIUS, Sampler, codomain_sampler, domain_sampler


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def _expanded(desc):
    return desc.expand() if isinstance(desc, DiagonalBands) else desc


def reference_pairs(desc, kind, rng, pairs, delta, max_dist=math.inf):
    desc = _expanded(desc)
    x = desc.sample(rng, pairs)
    y = x + rng.normal(size=x.shape) * (delta / 2.0)
    keep = np.asarray(desc.contains(y, 0.0))
    x, y = x[keep], y[keep]
    dist = norm(x - y, kind)
    ok = (dist >= 1e-14) & (dist <= max_dist)
    return x[ok], y[ok], dist[ok]


def lipschitz_oracle(m, which, pairs, seed, delta=1e-3):
    """Empirical max of ||m(x) - m(y)|| / ||x - y|| over the reference pairs
    of witness piece ``which`` (an index) or of the closed set ``which``."""
    desc = piece(m.witness, which) if isinstance(which, int) else which
    x, y, dist = reference_pairs(desc, m.kind, _rng(seed, 23), pairs, delta)
    return float(np.max(norm(m.apply(x) - m.apply(y), m.kind) / dist))


def sup_abs(f, pts):
    """max |f| over the given points: a lower bound on f's sup norm."""
    return float(np.max(np.abs(f.apply(pts))))


def retract_draw(m, n, seed):
    """n points of m's retract at seed: run_suite's retract set."""
    return codomain_sampler(m.codomain, seed).draw(n)


def domain_draw(m, n, seed, first=()):
    """The points ``first``, if any, then n points of domain_sampler(m,
    seed): with m.special_points first, run_suite's domain set."""
    pts = domain_sampler(m, seed).draw(n)
    return np.concatenate([np.reshape(first, (-1, m.dim)), pts]) if len(first) else pts


def ball_draw(m, n, seed):
    """n points of the ball of radius DOMAIN_RADIUS at seed: the norm
    identity's set, which run_suite draws at its seed + 50."""
    return Sampler(seed, "ball", dim=m.dim, kind=m.kind, lo=0.0, hi=DOMAIN_RADIUS).draw(n)


def operator_sets(phi, n, seed):
    """[retract_draw at seed + 1, domain_draw at seed]: the operator check's
    sets, n points each."""
    return [retract_draw(phi, n, seed + 1), domain_draw(phi, n, seed)]


def circle_grid(n):
    """n equispaced angles on the Euclidean unit circle."""
    theta = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


def descriptor_from_json(obj: dict) -> SetDescriptor:
    """Inverse of ``SetDescriptor.to_json`` for the closed grammar."""
    variant = obj.get("variant")
    if variant == "interval":
        return Interval(obj["lo"], obj["hi"])
    if variant == "norm_band":
        hi = obj["hi"]
        return NormBand(
            NormKind.parse(obj["norm"]),
            obj["lo"],
            math.inf if hi == "inf" else float(hi),
            obj["dim"],
        )
    if variant == "singleton":
        return Singleton(tuple(obj["point"]))
    if variant == "finite_union":
        return FiniteUnion(tuple(descriptor_from_json(m) for m in obj["members"]))
    if variant == "diagonal_bands":
        kind = None if "coordinate" in obj else NormKind.parse(obj["norm"])
        return DiagonalBands(kind, obj["start"], obj["m"], obj["dim"])
    raise ValueError(f"unknown descriptor variant {variant!r}")
