"""Property checks for witnessed piecewise maps.

Continuity is verified as empirical Lipschitz domination over seeded point
pairs, never as an epsilon-delta search: each piece's declared constant must
dominate the ratios sampled on that piece.
All sampling is seeded and deterministic: identical seeds give bit-identical
reports.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    DimensionMismatch,
    Interval,
    NormBand,
    NormKind,
    SetDescriptor,
    Tolerance,
    _unit_rows,
    as_points,
    as_vector,
    gaussian_directions,
    norm,
    piece,
    sample_pieces,
)
from .constructions import PiecewiseMap
from .fields import ScalarField, const_field, extension_operator, linear_combination


# ---------------------------------------------------------------------------
# Samplers


def _rng(seed: int, stream: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


@dataclass(frozen=True)
class Sampler:
    """Deterministic seeded sampler.

    Strategies: ``ball`` (direction by normalized gaussian, radius uniform in
    [lo, hi]), ``sphere`` (normalized gaussian), ``set`` (descriptor-driven).

    ``ball`` and ``sphere`` nest: direction and radius draws use separate
    sub-streams of the seed, so the first n points of a draw of m > n equal
    the draw of n.  So does ``set`` of an Interval, one uniform per point.
    ``set`` of any other descriptor does not: a descriptor draws every part
    (member choice, directions, radii) from one stream, so what follows the
    first part depends on the count.
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
            g = _rng(self.seed, 11).standard_normal(size=(n, self.dim))
            return _unit_rows(g, self.kind, _rng(self.seed, 13).uniform(self.lo, self.hi, size=n))
        if self.strategy == "set":
            if self.descriptor is None:
                raise ValueError("'set' strategy needs a descriptor")
            return self.descriptor.sample(_rng(self.seed, 11), n)
        raise ValueError(f"unknown sampling strategy {self.strategy!r}")


def codomain_sampler(codomain: SetDescriptor, seed: int) -> Sampler:
    """Sampler of a retract: ``ball`` for the unit ball, ``sphere`` for the
    unit sphere, else the descriptor's own draw (``set``)."""
    if isinstance(codomain, NormBand) and codomain.hi == 1.0 and codomain.lo in (0.0, 1.0):
        strategy = "ball" if codomain.lo == 0.0 else "sphere"  # ball radii are uniform in [0, 1]
        return Sampler(seed, strategy, dim=codomain.dim, kind=codomain.kind)
    return Sampler(seed, "set", dim=codomain.dim, descriptor=codomain)


# Unbounded domains are drawn up to this norm, across the integers where diagonal pieces change.
DOMAIN_RADIUS = 5.0


def domain_sampler(m: PiecewiseMap, seed: int) -> Sampler:
    """Default sampler for a map's domain: within DOMAIN_RADIUS, or the
    domain's own band up to that norm."""
    if m.dim == 1:
        return Sampler(seed, "set", dim=1, descriptor=Interval(-DOMAIN_RADIUS, DOMAIN_RADIUS))
    if isinstance(m.domain, NormBand):
        hi = min(m.domain.hi, DOMAIN_RADIUS)
        return Sampler(seed, "ball", dim=m.dim, kind=m.kind, lo=m.domain.lo, hi=hi)
    return Sampler(seed, "ball", dim=m.dim, kind=m.kind, lo=0.0, hi=DOMAIN_RADIUS)


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


# A failing report names at most this many of its worst offending points.
WITNESS_POINTS = 10


def _mk_report(name, n, max_violation, tol, offenders=()) -> CheckReport:
    status = PASS if max_violation <= tol else FAIL
    return CheckReport(
        check_name=name,
        status=status,
        samples_used=int(n),
        max_violation=float(max_violation),
        tolerance=float(tol),
        witness_points=tuple(map(tuple, np.asarray(offenders[:WITNESS_POINTS], dtype=float).tolist())),
    )


def _worst_points(pts: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """Rows of pts at the at most WITNESS_POINTS largest positive deviations,
    largest first, ties in input order: no sort dispatch can move them."""
    bad = np.flatnonzero(dev > 0)
    if len(bad) > WITNESS_POINTS:
        kth = len(bad) - WITNESS_POINTS
        bad = bad[dev[bad] >= np.partition(dev[bad], kth)[kth]]
    return pts[bad[np.lexsort((bad, -dev[bad]))][:WITNESS_POINTS]]


# ---------------------------------------------------------------------------
# Checks


def _points(check: str, pts, dim: int) -> np.ndarray:
    """pts validated once by as_points, which returns a 2-D float array as
    it is; a set with no rows raises, naming the check."""
    pts = as_points(pts, dim)
    if not len(pts):
        raise ValueError(f"{check} needs at least one point")
    return pts


def check_retraction_identity(
    m: PiecewiseMap,
    pts,
    tol: float = DEFAULT_TOLERANCE.identity_tol,
) -> CheckReport:
    """max over the given retract points a of ||r(a) - a||; a retraction
    fixes them all.  run_suite gives it codomain_sampler(m.codomain, seed).
    The points are validated once and the rule runs on them directly."""
    pts = _points("retraction-identity", pts, m.dim)
    dev = norm(m.rule(pts) - pts, m.kind)
    offenders = _worst_points(pts, np.where(dev > tol, dev, 0.0))
    return _mk_report("retraction-identity", len(pts), float(np.max(dev)), tol, offenders)


# Rows of one batch of drawn points.  The continuity checks and the cover's
# monotonicity step draw whole pieces into batches of at most this many rows,
# so their memory does not grow with the number of pieces; a piece with more
# rows than this is a batch of its own.  At 8,192 rows (four pieces of 2,000
# pairs) a batch's arrays take about as much memory as the rest of a suite;
# at 32,768 the continuity pass alone doubled a suite's peak, for no
# measurable gain in speed.
BATCH_ROWS = 8_192


def _batches(items: Sequence, n: int) -> list:
    """``items`` (pieces of n rows each) cut into consecutive batches of
    BATCH_ROWS // n pieces: at most BATCH_ROWS rows, or one piece alone when
    n exceeds it (BATCH_ROWS pieces when n is 0)."""
    step = max(1, BATCH_ROWS // max(n, 1))
    return [items[i:i + step] for i in range(0, len(items), step)]


# Points drawn from each piece whose monotonicity the bounds leave undecided:
# nine pieces of 1,000 cost about one cover set of run_suite's default 10,000.
MONOTONICITY_SAMPLES = 1_000


def check_cover(
    m: PiecewiseMap,
    pts,
    max_index: int = 10,
    seed: int = 0,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
) -> CheckReport:
    """Every given domain point lies in its predicted witness piece, and
    piece(k) lies in piece(k+1) for k < max_index.  run_suite gives it
    m.special_points followed by domain_sampler(m, seed + 1), and this
    seed.  The points are validated once; the predicted index and the
    witness test then run on them directly.

    Monotonicity is decided from the pieces' bounds where it can be: when
    ``piece(k).subset_of(piece(k+1))`` holds for every k, no point is drawn
    for it.  This loses no failure the draws could find.  Take a point that
    lies in piece(k) under the check's tolerance.  A step decided True
    leaves it inside piece(k+1), because piece(k+1)'s membership uses the
    same float expressions with bounds at least as wide, and subtracting or
    adding the tolerance is monotone.  So for such a step the sampled test
    can only find points that the draw put outside piece(k) itself.

    Otherwise MONOTONICITY_SAMPLES points of each piece(k) are drawn, in
    order from one generator seeded by ``seed``, and tested against
    piece(k+1) a batch at a time."""
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    pts = _points("cover-and-monotonicity", pts, m.dim)
    tol = tolerance.membership_tol

    # Offenders: uncovered points, then points outside their predicted piece
    # by index and input position, then monotonicity misses by k.
    idx = m.predicted_index_fn(pts, tol)
    covered = idx >= 0
    if covered.all():
        inside = m.witness.membership(pts, idx, tol)
    else:
        inside = m.witness.membership(pts[covered], idx[covered], tol)
    missed = np.flatnonzero(covered)[~inside]
    missed = missed[np.argsort(idx[missed], kind="stable")]
    offenders = [pts[~covered][:WITNESS_POINTS], pts[missed][:WITNESS_POINTS]]
    failures = len(pts) - int(np.sum(inside))

    pieces = (piece(m.witness, k) for k in range(1, max_index + 1))
    if not all(a.subset_of(b) for a, b in itertools.pairwise(pieces)):
        rng = _rng(seed, 17)
        for ks in _batches(range(1, max_index), MONOTONICITY_SAMPLES):
            s = as_points(sample_pieces([(piece(m.witness, k), rng) for k in ks], MONOTONICITY_SAMPLES), m.dim)
            grown = np.repeat(np.asarray(ks) + 1, MONOTONICITY_SAMPLES)
            inside = m.witness.membership(s, grown, tol)
            offenders.append(s[~inside][:WITNESS_POINTS])
            failures += int(np.sum(~inside))

    return _mk_report(
        "cover-and-monotonicity", len(pts), float(failures), 0.0, np.concatenate(offenders)
    )


def _check_pairs(pairs: int) -> None:
    if pairs < 0:
        raise ValueError(f"pairs must be >= 0, got {pairs}")


# Continuity pairs lie at most this far apart, so each ratio is local to its piece.
CONTINUITY_DELTA = 1e-3
# Ratios carry the rounding of the map and the distances, so a declared L is met up to L * CONTINUITY_SLACK.
CONTINUITY_SLACK = 1.0 + 1e-9
# With fewer kept pairs a continuity check is inconclusive: too few ratios to judge a piece.
MIN_CONTINUITY_PAIRS = 50


def _piece_continuity_reports(m, ks, seeds, pairs) -> list:
    """check_piece_continuity of m at each piece ks[i] with seed seeds[i],
    with the pieces' pairs drawn, tested and mapped a batch at a time.

    Each piece k gets its own generator: x is drawn from piece k, y = x plus
    a gaussian step of scale CONTINUITY_DELTA/2, and a pair is kept when y
    lies in piece k and 1e-14 <= ||x - y|| <= CONTINUITY_DELTA.  A batch
    draws all its x first, in one sample_pieces call (``pairs`` rows per
    piece), then each generator draws its piece's steps.  The x are validated once per batch,
    and the membership test, the distances, the map and the ratios then run
    once over all rows.  They are row-wise float operations, so each piece
    gets the bits it would get alone.  Kept pairs are counted over each
    piece's block of rows, and the map never sees the points of a piece with
    fewer than MIN_CONTINUITY_PAIRS kept pairs.  The mask and the ratios are
    built in place, only in arrays the pass made itself: a rule may return
    its input.  Witness points are sorted out only for a piece that fails."""
    _check_pairs(pairs)
    reports = {}
    todo = []
    for k, seed in zip(ks, seeds):
        lip = m.piece_lipschitz(k)
        if lip is None:
            reports[k] = CheckReport(f"piece-continuity-{k}", INCONCLUSIVE, 0, 0.0, 0.0)
        else:
            todo.append((k, seed, float(lip) * CONTINUITY_SLACK))
    for batch in _batches(todo, pairs):
        draws = [(piece(m.witness, k), _rng(seed, 19)) for k, seed, _ in batch]
        x = as_points(sample_pieces(draws, pairs), m.dim)
        y = np.empty_like(x)
        for (_, rng), rows in zip(draws, np.split(y, len(draws))):
            rng.standard_normal(out=rows)
        y *= CONTINUITY_DELTA / 2.0
        y += x
        dist = norm(x - y, m.kind)
        keep = dist >= 1e-14
        keep &= dist <= CONTINUITY_DELTA
        idx = np.array([k for k, _, _ in batch], dtype=np.int64)
        keep &= m.witness.membership(y, np.repeat(idx, pairs), 0.0)
        kept = np.add.reduceat(keep, np.arange(0, len(keep), pairs)) if pairs else np.zeros(len(batch), int)
        used = np.where(kept >= MIN_CONTINUITY_PAIRS, kept, 0)
        if not used.all():
            keep &= np.repeat(used > 0, pairs)
        x, y, dist = (np.compress(keep, a, axis=0) for a in (x, y, dist))
        if len(x):
            ratio = norm(m.rule(x) - m.rule(y), m.kind)
            ratio /= dist
        for (k, _, bound), count, u, e in zip(batch, kept, used, np.cumsum(used)):
            name = f"piece-continuity-{k}"
            if u:
                r = ratio[e - u:e]
                worst = r.max()
                offenders = _worst_points(x[e - u:e], np.where(r > bound, r, 0.0)) if worst > bound else ()
                reports[k] = _mk_report(name, count, worst, bound, offenders)
            else:
                reports[k] = CheckReport(name, INCONCLUSIVE, int(count), 0.0, bound)
    return [reports[k] for k in ks]


def check_piece_continuity(
    m: PiecewiseMap,
    n: int,
    pairs: int = 2_000,
    seed: int = 0,
) -> CheckReport:
    """Empirical Lipschitz check of the restriction to witness piece n:
    draws point pairs within the piece at distance <= CONTINUITY_DELTA and
    compares the worst ratio against the declared constant times
    CONTINUITY_SLACK; with fewer than MIN_CONTINUITY_PAIRS kept pairs the
    report is inconclusive.

    The pairs come from the piece's own generator, seeded by ``seed`` alone,
    so checking several pieces in one batch (as run_suite does) gives each
    the report this call gives.  ``pairs`` must be >= 0."""
    return _piece_continuity_reports(m, [int(n)], [seed], pairs)[0]


# Nearer an integer, ||x|| - floor(||x||) may round to 1, so ||m(x)|| < 1 is not asked there.
INTEGER_GAP = 1e-9


def check_norm_identity_open_ball(
    m: PiecewiseMap,
    pts,
    tol: float = DEFAULT_TOLERANCE.identity_tol,
) -> CheckReport:
    """||m(x)|| equals ||x|| - floor(||x||) up to tol, and stays strictly
    below 1 whenever ||x|| is at least INTEGER_GAP away from an integer,
    over the given points x.  run_suite gives it the ball of radius
    DOMAIN_RADIUS, drawn at seed + 50.  The points are validated once."""
    pts = _points("open-ball-norm-identity", pts, m.dim)
    r = norm(pts, m.kind)
    rn = norm(m.rule(pts), m.kind)
    dev = np.abs(rn - (r - np.floor(r)))
    eligible = np.abs(r - np.round(r)) >= INTEGER_GAP
    strict_bad = eligible & (rn >= 1.0)
    failures = float(np.max(dev))
    offenders = list(_worst_points(pts, np.where(dev > tol, dev, 0.0)))
    if strict_bad.any():
        failures = max(failures, float(np.max(rn[strict_bad])))
        offenders.extend(pts[strict_bad][:WITNESS_POINTS])
    return _mk_report("open-ball-norm-identity", len(pts), failures, tol, offenders)


def _frozen(pts: np.ndarray) -> np.ndarray:
    pts.flags.writeable = False
    return pts


def _memoized(rule: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """rule, remembering the read-only image of each read-only array, by
    identity, for as long as the array lives: a ``weakref.finalize`` on the
    array removes its entry, so an image dies with its input and, in turn,
    the images made from it.  A writable array could change between calls,
    so it goes straight to the rule.  An image that shares memory with its
    input is returned but not kept: it would keep its input, and so itself,
    alive.  The table is the returned rule's ``images``."""
    images = {}  # id(pts) -> image

    def memo_rule(pts):
        if pts.flags.writeable:
            return rule(pts)
        image = images.get(id(pts))
        if image is None:
            image = _frozen(rule(pts))
            if not np.may_share_memory(image, pts):
                images[id(pts)] = image
                weakref.finalize(pts, images.pop, id(pts), None)
        return image

    memo_rule.images = images
    return memo_rule


def _on_dim(f: ScalarField, dim: int) -> ScalarField:
    """f, once checked to take points of dimension dim, as apply would."""
    if f.dim != dim:
        raise DimensionMismatch(f"expected dimension {f.dim}, got {dim}")
    return f


def _not_nan(check: str, value) -> float:
    """float(value), raising when it is NaN: the max and min that fold a
    check's violations would silently drop it."""
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{check} is undefined: its compared values include NaN")
    return value


def _sup_abs(*parts: np.ndarray) -> float:
    """max |v| over the arrays together (NaN if any value is NaN)."""
    return float(np.max([np.max(np.abs(p)) for p in parts]))


# Linearity coefficients: distinct, of both signs and not 1, so a lost scale or sign shows.
LINEARITY_ALPHA, LINEARITY_BETA = 2.0, -3.0
# phi fixes the retract only up to rounding, so sup |Tf| and sup |f| may differ in the last bits.
ISOMETRY_TOL = 1e-9


# Fields near the float limit overflow to inf and inf - inf is NaN; _not_nan
# reports the NaN, so numpy's warnings about it would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def check_operator_properties(
    phi: PiecewiseMap,
    fields: Sequence[ScalarField],
    sets: list,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
    operator: Callable[[PiecewiseMap, ScalarField], ScalarField] = extension_operator,
) -> list:
    """Linearity, positivity, extension and sup-norm isometry reports for the
    composition operator f -> f∘phi over the given catalog fields.

    ``sets`` is [retract points, domain points]: linearity and positivity
    read the domain points, extension the retract points, and the isometry
    both.  run_suite gives it the sets its retraction identity and cover
    checks read: codomain_sampler(phi.codomain, seed) and
    domain_sampler(phi, seed + 1), without the special points.  The check
    takes the two sets over and empties the list, so a caller that keeps
    no other reference to a set hands it over, and the set and its images
    go when the check is done with them.  Each set is validated once and
    made read-only, and the check calls rules on it directly rather than
    through ``apply``; it tests instead that every field and every
    operator result takes points of phi's dimension.

    phi and every given field are memoized: each read-only array they are
    given maps, by identity, to its read-only image, and an image lives as
    long as the array it was made from.  So phi runs once per point set,
    and each field once per distinct array it sees, however many
    combinations, shifted fields and extensions reuse it.  The domain
    points, and every image made from them, go after positivity, and the
    retract points after extension.  A field rule that writes into its
    input raises instead of corrupting a set or an image.  ``operator`` is
    called once per field, combination and shifted field.

    For each bounded field, the isometry compares sup |Tf| over both sets
    with sup |f| over phi's image of the domain points and the retract
    points, each the exact max of two parts taken while their images are
    alive: the domain side during positivity, the retract side during
    extension.  A NaN in any compared value raises ValueError naming the
    first property it reaches, in the order linearity, positivity,
    extension, isometry; numpy's overflow and invalid-value warnings are
    silenced inside the check.
    """
    if not fields:
        raise ValueError("need at least one field")
    a_pts, x_pts = sets
    sets.clear()
    a_pts = _frozen(_points("operator-properties", a_pts, phi.dim))
    x_pts = _frozen(_points("operator-properties", x_pts, phi.dim))
    phi = phi.replace(rule=_memoized(phi.rule))
    fields = [dataclasses.replace(f, rule=_memoized(f.rule)) for f in fields]

    def extended(f):
        return _on_dim(operator(phi, f), phi.dim)

    ext = [extended(f) for f in fields]
    for f in fields:
        _on_dim(f, phi.dim)
    reports = []

    # Linearity: T(alpha*f + beta*g) against alpha*Tf + beta*Tg pointwise,
    # as |lhs - rhs| / max(1, |rhs|).
    alpha, beta = LINEARITY_ALPHA, LINEARITY_BETA
    lin_v = 0.0
    pairs = list(zip(fields, ext))
    for (f, tf), (g, tg) in zip(pairs, pairs[1:] + pairs[:1]):
        comb = linear_combination([(alpha, f), (beta, g)])
        lhs = extended(comb).rule(x_pts)
        rhs = alpha * tf.rule(x_pts)
        rhs += beta * tg.rule(x_pts)
        dev = lhs - rhs
        np.abs(dev, out=dev)
        np.abs(rhs, out=rhs)
        np.maximum(1.0, rhs, out=rhs)
        dev /= rhs
        lin_v = max(lin_v, _not_nan("operator-linearity", np.max(dev)))
    del lhs, rhs, dev
    reports.append(_mk_report("operator-linearity", len(x_pts), lin_v, tolerance.identity_tol))

    # Positivity: fields shifted to be nonnegative on the retract must have
    # nonnegative extensions; composition cannot create negativity.
    pos_v = 0.0
    inconclusive = False
    sups = {}  # bounded field -> [sup |Tf|, sup |f|] over the draws seen so far
    phi_x = phi.rule(x_pts)
    for f, tf in pairs:
        if not f.bounded:
            continue
        sups[f] = [_sup_abs(tf.rule(x_pts)), _sup_abs(f.rule(phi_x))]
        h = linear_combination([(1.0, f), (1.0, const_field(f.bound, f.dim, f.domain))])
        premise = min(
            _not_nan("operator-positivity", np.min(h.rule(a_pts))),
            _not_nan("operator-positivity", np.min(h.rule(phi_x))),
        )
        if premise < 0.0:
            inconclusive = True
        else:
            conclusion = _not_nan("operator-positivity", np.min(extended(h).rule(x_pts)))
            pos_v = max(pos_v, max(0.0, -conclusion))
    rep = _mk_report("operator-positivity", len(x_pts), pos_v, 0.0)
    if inconclusive and rep.status == PASS:
        rep = CheckReport(rep.check_name, INCONCLUSIVE, rep.samples_used, rep.max_violation, rep.tolerance)
    reports.append(rep)
    iso_samples = len(x_pts) + len(a_pts)
    del x_pts, phi_x

    # Extension: the operator leaves values on the retract untouched.
    ext_v = 0.0
    ext_off = []
    for f, tf in pairs:
        t_a, f_a = tf.rule(a_pts), f.rule(a_pts)
        if f in sups:
            sups[f] = [_sup_abs(t_a, sups[f][0]), _sup_abs(f_a, sups[f][1])]
        dev = t_a - f_a
        np.abs(dev, out=dev)
        ext_v = max(ext_v, _not_nan("operator-extension", np.max(dev)))
        dev[dev <= tolerance.identity_tol] = 0.0
        ext_off.extend(_worst_points(a_pts, dev))
    reports.append(_mk_report("operator-extension", len(a_pts), ext_v, tolerance.identity_tol, ext_off))
    del a_pts, dev, t_a, f_a

    # Isometry on bounded fields: phi fixes the retract, so sup |Tf| over
    # the domain and retract draws must equal sup |f| over their images.
    iso_v = 0.0
    for sup_t, sup_f in sups.values():
        iso_v = max(iso_v, _not_nan("operator-isometry", abs(sup_t - sup_f)))
    reports.append(_mk_report("operator-isometry", iso_samples, iso_v, ISOMETRY_TOL))
    return reports


# Past this k the demo's scale 10.0**-k underflows to 0.0, so its rows show nothing.
MAX_DEMO_DEPTH = 323


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
) -> list:
    """Evidence that the sphere retraction is not continuous at the origin:
    inputs along two unit directions collapse toward the origin while their
    images stay a fixed distance apart, over depth <= MAX_DEMO_DEPTH rows."""
    if not 1 <= depth <= MAX_DEMO_DEPTH:
        raise ValueError(f"depth must be between 1 and {MAX_DEMO_DEPTH}, got {depth}")
    u = as_vector(u)
    v = as_vector(v)
    if len(u) != m.dim or len(v) != m.dim:
        raise DimensionMismatch(f"demo directions must have dimension {m.dim}, got {len(u)} and {len(v)}")
    tol = DEFAULT_TOLERANCE.identity_tol
    if abs(norm(u, m.kind) - 1.0) > tol or abs(norm(v, m.kind) - 1.0) > tol:
        raise ValueError("demo directions must be unit vectors")
    if np.max(np.abs(u - v)) <= tol:
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


# Shrinking piece k is the map's piece max(8 - k, 0): it shrinks within the cover check's 1..10.
SHRINK_START = 8
# The understated control declares 1% of each bound, below the sampled ratios of every construction.
UNDERSTATED_FACTOR = 0.01


def corrupt_shrinking_witness(m: PiecewiseMap) -> PiecewiseMap:
    base = m.witness
    fam = dataclasses.replace(
        base,
        piece_at=lambda k: base.piece_at(max(SHRINK_START - k, 0)),
        membership=lambda pts, idx, tol: base.membership(pts, np.maximum(SHRINK_START - idx, 0), tol),
    )  # a PieceFamily claims to increase: the lie this control exists to expose
    return m.replace(witness=fam, construction_id=m.construction_id + "+shrinking-witness")


def corrupt_understated_lipschitz(m: PiecewiseMap) -> PiecewiseMap:
    base = m.piece_lipschitz
    return m.replace(
        piece_lipschitz=lambda k: None if base(k) is None else base(k) * UNDERSTATED_FACTOR,
        construction_id=m.construction_id + "+understated-lipschitz",
    )


def negated_operator(phi: PiecewiseMap, f: ScalarField) -> ScalarField:
    g = extension_operator(phi, f)
    return dataclasses.replace(g, label="-" + g.label, rule=lambda pts, r=g.rule: -r(pts))


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
    tolerance: Tolerance = DEFAULT_TOLERANCE,
    fields: Sequence[ScalarField] = (),
) -> list:
    """All applicable checks for a map, in fixed order: the retraction
    identity, the cover check (which also tests the map's special points),
    the continuity of pieces 1..max_piece_index, the open-ball norm identity
    for a map onto NormBand(kind, 0, 1, d), the closure of the open unit
    ball (the open-ball retraction), and, given fields, the operator
    properties.

    run_suite alone draws the checks' point sets, each once and read-only,
    and holds a set only while a later check needs it.  The retract set,
    codomain_sampler(m.codomain, seed), feeds the retraction identity; the
    domain set, m.special_points followed by domain_sampler(m, seed + 1),
    feeds the cover check, whose monotonicity draws, if any, take
    seed + 1.  Given fields, both sets are then handed over to the operator
    check (the domain set without its special points), so each goes, with
    its images, when that check is done with it.  The open-ball norm
    identity reads the ball of radius DOMAIN_RADIUS drawn at seed + 50.

    The continuity checks draw their pairs from the pieces they test, in
    one batched pass, but each piece k keeps its own generator
    (seed + 2 + k), so each report equals that of
    check_piece_continuity(m, k, seed=seed + 2 + k) and batching cannot
    change it."""
    _check_pairs(pairs)
    if max_piece_index < 1:
        raise ValueError(f"max_piece_index must be >= 1, got {max_piece_index}")
    retract = _frozen(codomain_sampler(m.codomain, seed).draw(samples))
    reports = [check_retraction_identity(m, retract, tolerance.identity_tol)]
    operator_sets = [retract] if fields else []
    del retract
    domain = domain_sampler(m, seed + 1).draw(samples)
    if m.special_points:
        domain = np.concatenate([np.asarray(m.special_points, float), domain])
    domain = _frozen(domain)
    reports.append(check_cover(m, domain, max_piece_index, seed + 1, tolerance))
    if fields:
        operator_sets.append(domain[len(m.special_points):])
    del domain
    ks = range(1, max_piece_index + 1)
    reports.extend(_piece_continuity_reports(m, ks, [seed + 2 + k for k in ks], pairs))
    if m.codomain == NormBand(m.kind, 0.0, 1.0, m.dim):
        ball = Sampler(seed + 50, "ball", dim=m.dim, kind=m.kind, lo=0.0, hi=DOMAIN_RADIUS)
        reports.append(check_norm_identity_open_ball(m, ball.draw(samples), tolerance.identity_tol))
    if fields:
        reports.extend(check_operator_properties(m, fields, operator_sets, tolerance))
    return reports
