"""Property checks for witnessed piecewise maps.

Continuity is verified as empirical Lipschitz domination over seeded point
pairs, never as an epsilon-delta search; declared per-piece constants are
meant to be validated with :func:`lipschitz_oracle` before being trusted.
All sampling is seeded and deterministic: identical seeds give bit-identical
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Interval,
    NormBand,
    NormKind,
    PieceFamily,
    SetDescriptor,
    Tolerance,
    as_points,
    as_vector,
    gaussian_directions,
    norm,
    piece,
)
from .constructions import Codomain, OpenUnitBall, PiecewiseMap
from .fields import ScalarField, const_field, extension_operator, linear_combination


# ---------------------------------------------------------------------------
# Samplers


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


@dataclass(frozen=True)
class Sampler:
    """Deterministic seeded sampler.

    Strategies: ``ball`` (direction by normalized gaussian, radius uniform in
    [lo, hi]), ``sphere`` (normalized gaussian), ``interval`` (uniform in
    [lo, hi) of R^1), ``grid-circle`` (equispaced angles on the Euclidean
    unit circle), ``grid-interval`` (linspace), ``set`` (descriptor-driven).

    ``ball``, ``sphere`` and ``interval`` nest: direction and radius draws
    use separate sub-streams of the seed, so the first n points of a draw
    of m > n equal the draw of n.  The grids and ``set`` do not: a grid of
    m points is not an extension of a grid of n, and a descriptor draws
    every part (member choice, directions, radii) from one stream, so what
    follows the first part depends on the count.
    """

    seed: int
    strategy: str
    dim: int = 1
    kind: NormKind = NormKind(2.0)
    lo: float = 0.0
    hi: float = 1.0
    descriptor: Optional[SetDescriptor] = None

    def draw(self, n: int) -> np.ndarray:
        n = int(n)
        if n < 1:
            raise ValueError("sample count must be >= 1")
        if self.strategy == "sphere":
            return gaussian_directions(_rng(self.seed, 11), n, self.dim, self.kind)
        if self.strategy == "ball":
            dirs = gaussian_directions(_rng(self.seed, 11), n, self.dim, self.kind)
            return dirs * _rng(self.seed, 13).uniform(self.lo, self.hi, size=n)[:, None]
        if self.strategy == "interval":
            return _rng(self.seed, 11).uniform(self.lo, self.hi, size=(n, 1))
        if self.strategy == "grid-circle":
            theta = 2.0 * math.pi * np.arange(n) / n
            return np.column_stack([np.cos(theta), np.sin(theta)])
        if self.strategy == "grid-interval":
            return np.linspace(self.lo, self.hi, n)[:, None]
        if self.strategy == "set":
            if self.descriptor is None:
                raise ValueError("'set' strategy needs a descriptor")
            return self.descriptor.sample(_rng(self.seed, 11), n)
        raise ValueError(f"unknown sampling strategy {self.strategy!r}")


def codomain_sampler(codomain: Codomain, seed: int) -> Sampler:
    """Sampler of a retract: a nesting strategy for an interval, the open
    unit ball and the unit sphere, else its closure's own draw (``set``)."""
    d = codomain.closure
    if isinstance(d, Interval):
        return Sampler(seed, "interval", dim=1, lo=d.lo, hi=d.hi)
    if isinstance(codomain, OpenUnitBall):
        return Sampler(seed, "ball", dim=d.dim, kind=d.kind, lo=0.0, hi=1.0)
    if isinstance(d, NormBand) and d.lo == d.hi == 1.0:
        return Sampler(seed, "sphere", dim=d.dim, kind=d.kind)
    return Sampler(seed, "set", dim=d.dim, descriptor=d)


def domain_sampler(m: PiecewiseMap, seed: int, radius: float = 5.0) -> Sampler:
    """Default sampler for a map's domain."""
    if m.dim == 1:
        return Sampler(seed, "interval", dim=1, lo=-radius, hi=radius)
    if isinstance(m.domain, NormBand):
        return Sampler(seed, "ball", dim=m.dim, kind=m.kind, lo=m.domain.lo, hi=m.domain.hi)
    return Sampler(seed, "ball", dim=m.dim, kind=m.kind, lo=0.0, hi=radius)


# ---------------------------------------------------------------------------
# Reports


PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    status: str
    samples_used: int
    max_violation: float
    tolerance: float
    witness_points: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "status": self.status,
            "samples": self.samples_used,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "witness_points": [list(p) for p in self.witness_points],
        }

    @property
    def passed(self) -> bool:
        return self.status == PASS


def _mk_report(name, n, max_violation, tol, offenders=()) -> CheckReport:
    status = PASS if max_violation <= tol else FAIL
    return CheckReport(
        check_name=name,
        status=status,
        samples_used=int(n),
        max_violation=float(max_violation),
        tolerance=float(tol),
        witness_points=tuple(tuple(float(c) for c in p) for p in offenders[:10]),
    )


def _worst_points(pts: np.ndarray, dev: np.ndarray, k: int = 10) -> np.ndarray:
    if not np.any(dev > 0):
        return pts[:0]
    order = np.argsort(dev)[::-1]
    bad = order[dev[order] > 0][:k]
    return pts[bad]


# ---------------------------------------------------------------------------
# Checks


def check_retraction_identity(
    m: PiecewiseMap,
    sampler: Optional[Sampler] = None,
    n: int = 10_000,
    tol: float = 1e-12,
    seed: int = 0,
) -> CheckReport:
    """max over retract samples of ||r(a) - a||; a retraction fixes them all."""
    sampler = sampler or codomain_sampler(m.codomain, seed)
    pts = as_points(sampler.draw(n), m.dim)
    if len(pts) == 0:
        raise ValueError("codomain sampler produced no points")
    dev = norm(m.apply(pts) - pts, m.kind)
    offenders = _worst_points(pts, np.where(dev > tol, dev, 0.0))
    return _mk_report("retraction-identity", len(pts), float(np.max(dev)), tol, offenders)


def check_cover(
    m: PiecewiseMap,
    sampler: Optional[Sampler] = None,
    n: int = 10_000,
    max_index: int = 10,
    seed: int = 0,
    tolerance: Tolerance = Tolerance(),
    piece_samples: int = 1_000,
    extra_points: Optional[Sequence] = None,
) -> CheckReport:
    """Every domain sample lies in its predicted witness piece, and sampled
    points of piece(n) lie in piece(n+1) for n < max_index."""
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    sampler = sampler or domain_sampler(m, seed)
    pts = as_points(sampler.draw(n), m.dim)
    if extra_points is not None and len(extra_points):
        pts = np.concatenate([as_points(np.asarray(extra_points, float), m.dim), pts])
    tol = tolerance.membership_tol

    # Offenders: uncovered points, then points outside their predicted piece
    # by index and input position, then monotonicity misses by k.
    idx = m.predicted_index(pts, tol)
    covered = idx >= 0
    inside = m.witness.contains_at(pts[covered], idx[covered], tol)
    missed = np.flatnonzero(covered)[~inside]
    missed = missed[np.argsort(idx[missed], kind="stable")]
    offenders = [pts[~covered][:10], pts[missed][:10]]
    failures = len(pts) - int(np.sum(inside))

    rng = _rng(seed, 17)
    draws = [piece(m.witness, k).sample(rng, piece_samples) for k in range(1, max_index)]
    s = as_points(np.concatenate([np.empty((0, m.dim))] + draws), m.dim)
    grown = np.repeat(np.arange(2, max_index + 1), [len(d) for d in draws])
    inside = m.witness.contains_at(s, grown, tol)
    offenders.append(s[~inside][:10])
    failures += int(np.sum(~inside))

    return _mk_report(
        "cover-and-monotonicity", len(pts), float(failures), 0.0, np.concatenate(offenders)
    )


def _pairs_within(desc, kind, rng, pairs, delta, cap=8.0, max_dist=math.inf):
    """Seeded point pairs inside ``desc``: x drawn from it, y = x plus a
    gaussian step of scale delta/2, kept when y stays inside and
    1e-14 <= ||x - y|| <= max_dist.  Returns x, y and their distances."""
    x = desc.sample(rng, pairs, cap)
    y = x + rng.normal(size=x.shape) * (delta / 2.0)
    keep = np.asarray(desc.contains(y, 0.0))
    x, y = x[keep], y[keep]
    dist = norm(x - y, kind)
    ok = (dist >= 1e-14) & (dist <= max_dist)
    return x[ok], y[ok], dist[ok]


def check_piece_continuity(
    m: PiecewiseMap,
    n: int,
    pairs: int = 2_000,
    delta: float = 1e-3,
    tol_factor: float = 1.0 + 1e-9,
    seed: int = 0,
    min_pairs: int = 50,
) -> CheckReport:
    """Empirical Lipschitz check of the restriction to witness piece n:
    draws point pairs within the piece at distance <= delta and compares the
    worst ratio against the declared constant times tol_factor."""
    name = f"piece-continuity-{n}"
    lip = m.piece_lipschitz(n)
    if lip is None:
        return CheckReport(name, INCONCLUSIVE, 0, 0.0, 0.0)
    bound = float(lip) * tol_factor
    desc = piece(m.witness, n)
    x, y, dist = _pairs_within(desc, m.kind, _rng(seed, 19), pairs, delta, max_dist=delta)
    if len(x) < max(min_pairs, 1):
        return CheckReport(name, INCONCLUSIVE, int(len(x)), 0.0, bound)
    ratio = norm(m.apply(x) - m.apply(y), m.kind) / dist
    offenders = _worst_points(x, np.where(ratio > bound, ratio, 0.0))
    return _mk_report(name, len(x), float(np.max(ratio)), bound, offenders)


def lipschitz_oracle(
    m: PiecewiseMap,
    which_piece,
    pairs: int = 1_000_000,
    seed: int = 0,
    delta: float = 1e-3,
    cap: float = 8.0,
) -> float:
    """Empirical max of ||m(x)-m(y)|| / ||x-y|| over seeded pairs inside a
    witness piece (by index) or an explicit closed set.  Declared per-piece
    constants must dominate this value.  Degenerate pairs are skipped."""
    desc = piece(m.witness, which_piece) if isinstance(which_piece, (int, np.integer)) else which_piece
    x, y, dist = _pairs_within(desc, m.kind, _rng(seed, 23), pairs, delta, cap)
    if len(x) == 0:
        raise ValueError("no usable pairs inside the piece")
    ratio = norm(m.apply(x) - m.apply(y), m.kind) / dist
    return float(np.max(ratio))


def check_norm_identity_open_ball(
    m: PiecewiseMap,
    sampler: Optional[Sampler] = None,
    n: int = 100_000,
    tol: float = 1e-12,
    seed: int = 0,
    radius: float = 5.0,
    integer_gap: float = 1e-9,
) -> CheckReport:
    """||m(x)|| equals ||x|| - entier(||x||) up to tol, and stays strictly
    below 1 whenever ||x|| is at least integer_gap away from an integer."""
    sampler = sampler or Sampler(seed, "ball", dim=m.dim, kind=m.kind, lo=0.0, hi=radius)
    pts = as_points(sampler.draw(n), m.dim)
    r = norm(pts, m.kind)
    rn = norm(m.apply(pts), m.kind)
    dev = np.abs(rn - (r - np.floor(r)))
    eligible = np.abs(r - np.round(r)) >= integer_gap
    strict_bad = eligible & (rn >= 1.0)
    failures = float(np.max(dev))
    offenders = list(_worst_points(pts, np.where(dev > tol, dev, 0.0)))
    if strict_bad.any():
        failures = max(failures, float(np.max(rn[strict_bad])))
        offenders.extend(pts[strict_bad][:10])
    return _mk_report("open-ball-norm-identity", len(pts), failures, tol, offenders)


def _frozen(pts: np.ndarray) -> np.ndarray:
    pts.flags.writeable = False
    return pts


def _single_slot_memo(phi: PiecewiseMap) -> PiecewiseMap:
    """phi whose rule returns the cached image, read-only, when it is given
    the same array object as on its last call.  Callers must pass arrays
    that nobody writes to, or the cached image goes stale."""
    base = phi.rule
    last_pts, last_image = None, None

    def rule(pts):
        nonlocal last_pts, last_image
        if pts is not last_pts:
            last_pts, last_image = pts, _frozen(base(pts))
        return last_image

    return phi.replace(rule=rule)


def check_operator_properties(
    phi: PiecewiseMap,
    fields: Sequence[ScalarField],
    n: int = 10_000,
    iso_n: int = 100_000,
    seed: int = 0,
    tolerance: Tolerance = Tolerance(),
    iso_tol: float = 1e-9,
    alpha: float = 2.0,
    beta: float = -3.0,
    operator: Callable[[PiecewiseMap, ScalarField], ScalarField] = extension_operator,
) -> list:
    """Linearity, positivity, extension and sup-norm isometry reports for the
    composition operator f -> f∘phi over the given catalog fields.

    phi is evaluated once per point set (four sets: the linearity/positivity
    domain draws, the retract draws, and the two isometry sets), however many
    fields there are: ``operator`` receives phi with a single-slot memo on
    its rule.  The point sets and phi's images are read-only, so a field
    rule that writes into its input raises instead of corrupting them.
    ``operator`` is called once per field, combination and shifted field.
    """
    if not fields:
        raise ValueError("need at least one field")
    phi = _single_slot_memo(phi)
    x_pts = _frozen(as_points(domain_sampler(phi, seed).draw(n), phi.dim))
    a_pts = _frozen(as_points(codomain_sampler(phi.codomain, seed + 1).draw(n), phi.dim))
    ext = [operator(phi, f) for f in fields]
    reports = []

    # Linearity: T(alpha*f + beta*g) against alpha*Tf + beta*Tg pointwise.
    lin_v = 0.0
    pairs = list(zip(fields, ext))
    for (f, tf), (g, tg) in zip(pairs, pairs[1:] + pairs[:1]):
        comb = linear_combination([(alpha, f), (beta, g)])
        lhs = operator(phi, comb).apply(x_pts)
        rhs = alpha * tf.apply(x_pts) + beta * tg.apply(x_pts)
        scale = np.maximum(1.0, np.abs(rhs))
        lin_v = max(lin_v, float(np.max(np.abs(lhs - rhs) / scale)))
    reports.append(_mk_report("operator-linearity", len(x_pts), lin_v, tolerance.identity_tol))

    # Positivity: fields shifted to be nonnegative on the retract must have
    # nonnegative extensions; composition cannot create negativity.
    pos_v = 0.0
    inconclusive = False
    phi_x = phi.apply(x_pts)
    for f in fields:
        if not f.bounded:
            continue
        h = linear_combination([(1.0, f), (1.0, const_field(f.bound, f.dim, f.domain))])
        premise = min(float(np.min(h.apply(a_pts))), float(np.min(h.apply(phi_x))))
        if premise < 0.0:
            inconclusive = True
            continue
        conclusion = float(np.min(operator(phi, h).apply(x_pts)))
        pos_v = max(pos_v, max(0.0, -conclusion))
    rep = _mk_report("operator-positivity", len(x_pts), pos_v, 0.0)
    if inconclusive and rep.status == PASS:
        rep = CheckReport(rep.check_name, INCONCLUSIVE, rep.samples_used, rep.max_violation, rep.tolerance)
    reports.append(rep)

    # Extension: the operator leaves values on the retract untouched.
    ext_v = 0.0
    ext_off = []
    for f, tf in pairs:
        dev = np.abs(tf.apply(a_pts) - f.apply(a_pts))
        ext_v = max(ext_v, float(np.max(dev)))
        ext_off.extend(_worst_points(a_pts, np.where(dev > tolerance.identity_tol, dev, 0.0)))
    reports.append(_mk_report("operator-extension", len(a_pts), ext_v, tolerance.identity_tol, ext_off))

    # Isometry on bounded fields: matched seeded sets.  The retract-side set
    # is the phi-image of the domain draws plus retract draws; since phi
    # fixes the retract, the two sample suprema must agree.
    iso_v = 0.0
    xs = _frozen(as_points(domain_sampler(phi, seed + 2).draw(iso_n), phi.dim))
    as_ = as_points(codomain_sampler(phi.codomain, seed + 3).draw(iso_n), phi.dim)
    x_set = _frozen(np.concatenate([xs, as_]))
    a_set = _frozen(np.concatenate([phi.apply(xs), as_]))
    for f, tf in pairs:
        if not f.bounded:
            continue
        sup_x = float(np.max(np.abs(tf.apply(x_set))))
        sup_a = float(np.max(np.abs(f.apply(a_set))))
        iso_v = max(iso_v, abs(sup_x - sup_a))
    reports.append(_mk_report("operator-isometry", len(x_set), iso_v, iso_tol))
    return reports


@dataclass(frozen=True)
class DemoRow:
    k: int
    scale: float
    input_gap: float
    output_gap: float
    image_u: tuple
    image_v: tuple


def borsuk_discontinuity_demo(
    m: PiecewiseMap,
    u,
    v,
    depth: int = 12,
    tolerance: Tolerance = Tolerance(),
) -> list:
    """Evidence that the sphere retraction is not continuous at the origin:
    inputs along two unit directions collapse toward the origin while their
    images stay a fixed distance apart."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u = as_vector(u)
    v = as_vector(v)
    if abs(norm(u, m.kind) - 1.0) > tolerance.identity_tol or abs(
        norm(v, m.kind) - 1.0
    ) > tolerance.identity_tol:
        raise ValueError("demo directions must be unit vectors")
    if np.max(np.abs(u - v)) <= tolerance.identity_tol:
        raise ValueError("demo directions must differ")
    rows = []
    for k in range(1, depth + 1):
        r = 10.0 ** (-k)
        iu = m(r * u)
        iv = m(r * v)
        rows.append(
            DemoRow(
                k=k,
                scale=r,
                input_gap=float(norm(r * u - r * v, m.kind)),
                output_gap=float(norm(iu - iv, m.kind)),
                image_u=tuple(float(c) for c in iu),
                image_v=tuple(float(c) for c in iv),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Corruption catalog (negative controls)

# Documented deliberately-broken variants; every check must fail against its
# counterpart here.
#   halved              breaks the retraction identity (x -> r(x)/2)
#   identity-rule       breaks the open-ball norm identity (x -> x)
#   shrinking-witness   breaks cover monotonicity (pieces shrink with n)
#   understated-lipschitz  breaks the continuity check (declared bound ~0)
#   negated-operator    breaks operator positivity/extension (f -> -f∘phi)


def corrupt_halved(m: PiecewiseMap) -> PiecewiseMap:
    base = m.rule
    return m.replace(rule=lambda pts: 0.5 * base(pts), construction_id=m.construction_id + "+halved")


def corrupt_identity_rule(m: PiecewiseMap) -> PiecewiseMap:
    return m.replace(rule=lambda pts: pts.copy(), construction_id=m.construction_id + "+identity-rule")


def corrupt_shrinking_witness(m: PiecewiseMap, start: int = 8) -> PiecewiseMap:
    base = m.witness
    fam = PieceFamily(
        lambda k: base.piece_at(max(start - k, 0)),
        label=base.label + "+shrinking",
    )  # a PieceFamily claims to increase: the lie this control exists to expose
    return m.replace(witness=fam, construction_id=m.construction_id + "+shrinking-witness")


def corrupt_understated_lipschitz(m: PiecewiseMap, factor: float = 0.01) -> PiecewiseMap:
    base = m.piece_lipschitz
    return m.replace(
        piece_lipschitz=lambda k: None if base(k) is None else base(k) * factor,
        construction_id=m.construction_id + "+understated-lipschitz",
    )


def negated_operator(phi: PiecewiseMap, f: ScalarField) -> ScalarField:
    g = extension_operator(phi, f)
    return ScalarField(
        label="-" + g.label,
        dim=g.dim,
        rule=lambda pts, r=g.rule: -r(pts),
        domain=g.domain,
        bounded=g.bounded,
        bound=g.bound,
        lipschitz=g.lipschitz,
        witness=g.witness,
    )


CORRUPTIONS = {
    "halved": corrupt_halved,
    "identity-rule": corrupt_identity_rule,
    "shrinking-witness": corrupt_shrinking_witness,
    "understated-lipschitz": corrupt_understated_lipschitz,
}


# ---------------------------------------------------------------------------
# Suite runner


def run_suite(
    m: PiecewiseMap,
    seed: int = 0,
    samples: int = 10_000,
    max_piece_index: int = 10,
    pairs: int = 2_000,
    delta: float = 1e-3,
    tolerance: Tolerance = Tolerance(),
    fields: Sequence[ScalarField] = (),
) -> list:
    """All applicable checks for a map, in fixed order.  The cover check
    also tests the map's special points; a map onto the open unit ball (the
    open-ball retraction) also gets the open-ball norm identity."""
    reports = [
        check_retraction_identity(m, n=samples, tol=tolerance.identity_tol, seed=seed),
        check_cover(
            m,
            n=samples,
            max_index=max_piece_index,
            seed=seed + 1,
            tolerance=tolerance,
            extra_points=m.special_points,
        ),
    ]
    for k in range(1, max_piece_index + 1):
        reports.append(check_piece_continuity(m, k, pairs=pairs, delta=delta, seed=seed + 2 + k))
    if isinstance(m.codomain, OpenUnitBall):
        reports.append(
            check_norm_identity_open_ball(m, n=samples, tol=tolerance.identity_tol, seed=seed + 50)
        )
    if fields:
        reports.extend(
            check_operator_properties(
                m, fields, n=samples, iso_n=samples, seed=seed + 60, tolerance=tolerance
            )
        )
    return reports
