"""Factory operations producing each retraction as a witnessed piecewise map.

A :class:`PiecewiseMap` bundles the evaluation rule with its certificate: an
increasing family of closed pieces covering the domain, on each of which the
restriction is continuous (with a declared Lipschitz bound where known).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    DIAGONAL_INDEX_LIMIT,
    DiagonalBands,
    EUCLIDEAN,
    FiniteUnion,
    Interval,
    NormBand,
    NormKind,
    PieceFamily,
    Region,
    SetDescriptor,
    Singleton,
    as_points,
    as_vector,
    by_columns,
    constant_family,
    diagonal_membership,
    fold_columns,
    norm,
    piece,
    union_family,
)


class ConstructionError(ValueError):
    """A factory's preconditions were violated."""


# ---------------------------------------------------------------------------
# Regions.  A map's codomain is a closed SetDescriptor: a retract that is not
# closed ([0, 1), the open unit ball) is carried as its closure by its
# construction.


def unit_sphere(kind: NormKind, dim: int) -> NormBand:
    return NormBand(kind, 1.0, 1.0, dim)


@dataclass(frozen=True)
class PuncturedSpace(Region):
    """R^d without the origin; open, so only a membership predicate."""

    ndim: int

    def _contains(self, pts, tol):
        return fold_columns(pts, lambda c: c != 0.0, np.logical_or)


# ---------------------------------------------------------------------------
# The catalog of maps that are continuous on their declared domain.  Gluing
# accepts only these, so continuity of the off-retract branch is structural
# rather than checked.


class ContinuousMapRule:
    def defined_at(self, pts: np.ndarray) -> np.ndarray:
        """Where the map is defined (and continuous); everywhere by default."""
        return np.ones(len(pts), dtype=bool)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(ContinuousMapRule):
    value: tuple

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(float(c) for c in self.value))
        as_vector(self.value)

    def apply(self, pts):
        return np.tile(np.asarray(self.value, dtype=float), (len(pts), 1))


@dataclass(frozen=True)
class Clamp1D(ContinuousMapRule):
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConstructionError("clamp requires lo <= hi")

    def apply(self, pts):
        return np.clip(pts, self.lo, self.hi)


@dataclass(frozen=True)
class RadialProjection(ContinuousMapRule):
    """x -> x/||x||; continuous away from the origin, undefined at it."""

    kind: NormKind

    def defined_at(self, pts):
        return norm(pts, self.kind) > 0.0

    def apply(self, pts):
        r = norm(pts, self.kind)
        if np.any(r == 0.0):
            raise ConstructionError("radial projection evaluated at the origin")
        return by_columns(pts, (np.divide, r[:, None]))


# ---------------------------------------------------------------------------
# Witnessed piecewise maps


@dataclass(frozen=True, eq=False)
class PiecewiseMap:
    """A total map on its domain together with a witness cover certifying
    piecewise continuity.

    ``piece_lipschitz(n)`` is the declared Lipschitz bound of the restriction
    to witness piece n (None = unknown); the continuity checks compare it
    with the ratios they sample on that piece.
    ``predicted_index_fn(points, tol)`` returns, per point, a witness index
    whose piece holds the point (-1 = no piece found, which a cover check
    must report as a failure); it is the witness's ``index`` unless given.
    ``special_points`` are points where the map switches branch (the origin
    of the sphere retraction); ``run_suite`` puts them at the head of the
    cover check's domain set, before its random draws.
    """

    construction_id: str
    kind: NormKind
    domain: Region  # R^d is NormBand(kind, 0, inf, d)
    codomain: SetDescriptor
    rule: Callable[[np.ndarray], np.ndarray]
    witness: PieceFamily
    piece_lipschitz: Callable[[int], Optional[float]]
    predicted_index_fn: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    special_points: tuple = ()

    def __post_init__(self):
        if self.predicted_index_fn is None:
            object.__setattr__(self, "predicted_index_fn", self.witness.index)

    @property
    def dim(self) -> int:
        return self.codomain.dim

    def apply(self, pts) -> np.ndarray:
        return self.rule(as_points(pts, self.dim))

    def __call__(self, x) -> np.ndarray:
        return self.apply(as_vector(x)[None, :])[0]

    def predicted_index(self, pts, tol: float = DEFAULT_TOLERANCE.membership_tol) -> np.ndarray:
        return self.predicted_index_fn(as_points(pts, self.dim), tol)

    def replace(self, **changes) -> "PiecewiseMap":
        return dataclasses.replace(self, **changes)


def _fractional_part(values: np.ndarray) -> np.ndarray:
    """values - floor(values), with the wrap guard for a difference that
    rounds up to 1.0 (tiny negative inputs)."""
    frac = values - np.floor(values)
    return np.where(frac >= 1.0, 0.0, frac)


def _diagonal_index(t: np.ndarray, tol: float, signed: bool) -> np.ndarray:
    """Smallest m whose diagonal piece holds t under tol: members |n| <= m
    when ``signed`` (fractional), else 0 <= n <= m (open-ball norms).

    Only members floor(t) and floor(t) + 1 can decide (see diagonal_membership).
    Member floor(t) + 1 holds t within tol below it from m = |floor(t) + 1|
    on; member floor(t) holds t from m = |floor(t)| on once
    1/(m+1) <= 1 - frac(t) + tol.  Where float rounding of 1 - 1/(m+1)
    moves the answer off that closed form (by one, or by far more near
    m = 2**52, where the width stays constant over long runs of m), the
    pieces' monotonicity lets a bisection find it.  The index saturates at
    DIAGONAL_INDEX_LIMIT - 1; a point no piece up to it holds (an ulp below
    an integer at tol 0, or |t| >= 2**52) is then reported by the cover
    check rather than raising.
    """
    cap = float(DIAGONAL_INDEX_LIMIT - 1)

    def holds(t, m):
        return diagonal_membership(t, -m if signed else 0.0, m, tol)

    base = np.floor(t)
    up = base + 1.0
    gap = np.maximum(1.0 - (t - base) + tol, 1.0 / DIAGONAL_INDEX_LIMIT)
    m = np.maximum(np.abs(base), np.ceil(1.0 / gap) - 1.0)
    m = np.minimum(np.where(t >= up - tol, np.minimum(m, np.abs(up)), m), cap)
    off = ~holds(t, m) | ((m > 0.0) & holds(t, np.maximum(m - 1.0, 0.0)))
    if off.any():
        # holds(lo) is false (lo = -1: no piece) and holds(hi) true, unless
        # even the last piece misses t, which then keeps hi = cap.
        sub = t[off]
        lo = np.full(len(sub), -1.0)
        hi = np.full(len(sub), cap)
        while np.any(hi - lo > 1.0):
            mid = np.floor((lo + hi) / 2.0)
            h = holds(sub, mid)
            hi = np.where(h, mid, hi)
            lo = np.where(h, lo, mid)
        m[off] = hi
    return m.astype(np.int64)


def _diagonal_family(kind: Optional[NormKind], dim: int) -> PieceFamily:
    """Pieces DiagonalBands(kind, start, m, dim): members |n| <= m along the
    coordinate (``kind`` None), 0 <= n <= m along the norm."""
    signed = kind is None

    def piece_at(m):
        return DiagonalBands(kind, -m if signed else 0, m, dim)

    def membership(pts, idx, tol):
        if np.any(idx >= DIAGONAL_INDEX_LIMIT):
            raise ValueError("diagonal band indices need m < 2**52")
        m = idx.astype(float)
        t = pts[:, 0] if signed else norm(pts, kind)
        return diagonal_membership(t, -m if signed else 0, m, tol)

    def index(pts, tol):
        return _diagonal_index(pts[:, 0] if signed else norm(pts, kind), tol, signed)

    return PieceFamily(piece_at, membership, index)


# ---------------------------------------------------------------------------
# Constructions


def fractional_part_retraction() -> PiecewiseMap:
    """x -> x - floor(x), a retraction of R onto [0, 1).

    Witness piece m is the union of the intervals [n, n+1-1/(m+1)] for
    |n| <= m: the doubly-indexed closed cover re-enumerated diagonally into a
    single increasing sequence, carried as one :class:`DiagonalBands`.
    """

    def rule(pts):
        return _fractional_part(pts[:, 0])[:, None]

    return PiecewiseMap(
        construction_id="fractional",
        kind=NormKind(2.0),
        domain=NormBand(EUCLIDEAN, 0.0, math.inf, 1),
        codomain=Interval(0.0, 1.0),  # [0, 1), carried as its closure
        rule=rule,
        witness=_diagonal_family(None, 1),
        piece_lipschitz=lambda m: 1.0,
    )


def _identity_map(region: SetDescriptor, pieces: PieceFamily) -> PiecewiseMap:
    """The identity on a retract A, witnessed by closed pieces exhausting A."""
    return PiecewiseMap(
        construction_id="identity",
        kind=EUCLIDEAN,
        domain=region,
        codomain=region,
        rule=lambda pts: pts,
        witness=pieces,
        piece_lipschitz=lambda n: 1.0,
    )


def glue_retraction(
    a_region: SetDescriptor,
    a_pieces: PieceFamily,
    complement_pieces: PieceFamily,
    g: ContinuousMapRule,
    *,
    piece_lipschitz: Optional[Callable[[int], Optional[float]]] = None,
) -> PiecewiseMap:
    """Identity on the retract A, the continuous catalog map g off it: the
    extension of the identity on U = A (see extend_retraction).

    Witness piece n is a_pieces(n) ∪ complement_pieces(n); a point's index
    is its a_pieces index, else its complement_pieces one.
    """
    return extend_retraction(
        _identity_map(a_region, a_pieces),
        g,
        a_region,
        complement_pieces,
        construction_id="glue",
        piece_lipschitz=piece_lipschitz,
    )


def extend_retraction(
    inner: PiecewiseMap,
    g: ContinuousMapRule,
    u_region,
    complement_pieces: PieceFamily,
    *,
    construction_id: str = "extend",
    piece_lipschitz: Optional[Callable[[int], Optional[float]]] = None,
) -> PiecewiseMap:
    """Extend a retraction on U to all of X by the continuous map g off U.

    ``u_region`` is the region U; ``complement_pieces`` is the closed
    decomposition of X \\ U supplied by the caller, since the descriptor
    grammar cannot express complements.  Witness piece n is
    inner.witness(n) ∪ complement_pieces(n), indexed as union_family does.
    The factory sample-checks that the retract lies in U (up to membership
    slack) and that g is defined on the complement pieces and maps them into
    the retract.  The rule gets validated points, so it tests U and runs the
    inner rule directly.
    """
    mtol = DEFAULT_TOLERANCE.membership_tol
    rng = np.random.default_rng(0)
    a_samples = inner.codomain.sample(rng, 128)
    if not np.all(np.asarray(u_region.contains(a_samples, mtol))):
        raise ConstructionError("the retract is not contained in U on sampled points")
    for n in range(4):
        s = piece(complement_pieces, n).sample(rng, 128)
        if not np.all(g.defined_at(s)):
            raise ConstructionError(f"g is undefined on sampled complement piece {n}")
        if not np.all(np.asarray(inner.codomain.contains(g.apply(s), mtol))):
            raise ConstructionError(f"g maps sampled complement piece {n} outside the retract")

    def rule(pts):
        in_u = u_region._contains(pts, 0.0)
        if in_u.all():
            # Sampled inputs almost always lie in U: no gather or scatter.
            # The identity inner hands its input back, so copy it then.
            out = inner.rule(pts)
            return out.copy() if np.may_share_memory(out, pts) else out
        out = np.empty_like(pts)
        if in_u.any():
            out[in_u] = inner.rule(pts[in_u])
        if (~in_u).any():
            out[~in_u] = g.apply(pts[~in_u])
        return out

    return PiecewiseMap(
        construction_id=construction_id,
        kind=inner.kind,
        domain=NormBand(inner.kind, 0.0, math.inf, inner.dim),
        codomain=inner.codomain,
        rule=rule,
        witness=union_family(inner.witness, complement_pieces),
        piece_lipschitz=piece_lipschitz or (lambda n: None),
    )


def _origin(dim: int) -> tuple:
    return (0.0,) * dim


def _unit_e1(dim: int) -> tuple:
    return (1.0,) + _origin(dim - 1)


# Predicted indices saturate here: the reciprocal of a distance below
# 1/INDEX_CAP would overflow the int64 cast (or float64 itself).  A point
# that no piece up to the cap holds is reported by the cover check.
INDEX_CAP = 2.0**62


def _capped_index(x: np.ndarray) -> np.ndarray:
    """ceil(x) as int64 piece indices, saturated at INDEX_CAP; x >= 0."""
    return np.minimum(np.ceil(x), INDEX_CAP).astype(np.int64)


def _inverse(t: np.ndarray) -> np.ndarray:
    """1/t for t >= 0, held at INDEX_CAP where t is smaller than 1/INDEX_CAP."""
    return 1.0 / np.maximum(t, 1.0 / INDEX_CAP)


def _radial_bands(kind: NormKind, dim: int, hi: float, with_origin: bool) -> PieceFamily:
    """Pieces {1/max(n, 1) <= ||x|| <= hi}, plus the origin when ``with_origin``.
    A point's index is n = ceil(1/||x||) >= 1, moved to n + 1 where piece n
    misses x and to n - 1 where piece n - 1 holds x at tolerance 0; at
    tolerance 0 that is the smallest piece holding x.  It is -1 beyond hi,
    and at the origin 1 with the origin added, else -1."""
    origin = Singleton(_origin(dim))

    def piece_at(n):
        band = NormBand(kind, 1.0 / max(n, 1), hi, dim)
        return FiniteUnion((origin, band)) if with_origin else band

    def above_floor(r, idx, tol):
        return r >= 1.0 / np.maximum(idx, 1) - tol

    def membership(pts, idx, tol):
        r = norm(pts, kind)
        out = above_floor(r, idx, tol) & (r <= hi + tol)
        return out | origin._contains(pts, tol) if with_origin else out

    def index(pts, tol):
        r = norm(pts, kind)
        idx = np.full(len(pts), 1 if with_origin else -1, dtype=np.int64)
        pos = r > 0.0
        rp = r[pos]
        n = np.maximum(_capped_index(_inverse(rp)), 1)
        # 1/r can round down onto n while piece n misses x (1/0.19999999999999998
        # onto 5), or up past n - 1 while piece n - 1 holds x (1/fl(1/49) onto 50).
        idx[pos] = n + (~above_floor(rp, n, tol) & (n < INDEX_CAP)) - ((n > 1) & above_floor(rp, n - 1, 0.0))
        idx[r > hi + tol] = -1
        return idx

    return PieceFamily(piece_at, membership, index)


def radial_projection_map(dim: int, kind: NormKind) -> PiecewiseMap:
    """x -> x/||x|| on R^d minus the origin, witnessed by the bands
    {||x|| >= 1/n}; the inner retraction used by the extension factories."""
    if dim < 1:
        raise ConstructionError("dimension must be >= 1")
    return PiecewiseMap(
        construction_id="radial",
        kind=kind,
        domain=PuncturedSpace(dim),
        codomain=unit_sphere(kind, dim),
        rule=RadialProjection(kind).apply,
        witness=_radial_bands(kind, dim, math.inf, with_origin=False),
        piece_lipschitz=lambda n: 2.0 * max(n, 1),
    )


def sphere_retraction(
    dim: int,
    kind: NormKind,
    *,
    ambient: str = "space",
    paper_witness: bool = False,
) -> PiecewiseMap:
    """Retraction of R^d (or of the closed unit ball) onto the unit sphere:
    x -> x/||x|| away from the origin, the unit vector e1 at it.

    Witness piece n is {0} ∪ {||x|| >= 1/n}: the band alone misses the
    origin, so each piece is augmented with the origin as an isolated point.
    ``paper_witness=True`` keeps the un-augmented bands, whose union does not
    cover the domain; a cover check against it must fail at the origin.
    """
    if dim < 1:
        raise ConstructionError("dimension must be >= 1")
    if ambient not in ("space", "ball"):
        raise ConstructionError("ambient must be 'space' or 'ball'")
    e1 = _unit_e1(dim)

    def rule(pts):
        r = norm(pts, kind)
        zero = r == 0.0
        out = by_columns(pts, (np.divide, np.where(zero, 1.0, r)[:, None]))
        if zero.any():
            out[zero] = e1
        return out

    return PiecewiseMap(
        construction_id="sphere",
        kind=kind,
        domain=NormBand(kind, 0.0, math.inf if ambient == "space" else 1.0, dim),
        codomain=unit_sphere(kind, dim),
        rule=rule,
        witness=_radial_bands(
            kind, dim, 1.0 if ambient == "ball" else math.inf, with_origin=not paper_witness
        ),
        piece_lipschitz=lambda n: 2.0 * max(n, 1),
        special_points=(_origin(dim),),
    )


def open_ball_retraction(dim: int, kind: NormKind) -> PiecewiseMap:
    """Retraction of R^d onto the open unit ball:
    x -> ((||x|| - floor(||x||)) / ||x||) * x, with the origin fixed.
    The difference is exact (Sterbenz), where 1 - floor(||x||)/||x|| would
    cancel at large ||x||; below 1 the factor is 1.

    Witness piece m is the union over n = 0..m of the closed bands
    {n <= ||x|| <= n+1 - 1/(m+1)} (diagonal enumeration of the doubly-indexed
    band family, started at n = 0 so the open unit ball region is covered),
    carried as one :class:`DiagonalBands`.
    """
    if dim < 1:
        raise ConstructionError("dimension must be >= 1")

    def rule(pts):
        r = norm(pts, kind)
        zero = r == 0.0
        safe = np.where(zero, 1.0, r)
        factor = (r - np.floor(r)) / safe
        out = by_columns(pts, (np.multiply, factor[:, None]))
        if zero.any():
            out[zero] = 0.0
        return out

    return PiecewiseMap(
        construction_id="open-ball",
        kind=kind,
        domain=NormBand(kind, 0.0, math.inf, dim),
        codomain=NormBand(kind, 0.0, 1.0, dim),  # the open ball, carried as its closure
        rule=rule,
        witness=_diagonal_family(kind, dim),
        piece_lipschitz=lambda m: 1.0 if m == 0 else max(3.0, 2.0 * m),
        special_points=(_origin(dim),),
    )


# ---------------------------------------------------------------------------
# Canonical instances and the registry used by the CLI and reports


def canonical_glue() -> PiecewiseMap:
    """X = R, A = [0, 1], g = clamp to [0, 1] off A.  The complement index
    names a piece that holds the point, not always the smallest one."""
    a = Interval(0.0, 1.0)

    def complement_at(n):
        return FiniteUnion(
            (
                Interval(-(n + 1.0), -1.0 / (n + 2)),
                Interval(1.0 + 1.0 / (n + 2), n + 2.0),
            )
        )

    def left(t, n, tol):
        return (t >= -(n + 1.0) - tol) & (t <= -1.0 / (n + 2) + tol)

    def right(t, n, tol):
        return (t >= (1.0 + 1.0 / (n + 2)) - tol) & (t <= (n + 2.0) + tol)

    def complement_membership(pts, n, tol):
        t = pts[:, 0]
        return left(t, n, tol) | right(t, n, tol)

    def complement_index(pts, tol):
        t = pts[:, 0]
        idx = np.full(len(t), -1, dtype=np.int64)
        neg = t < 0.0
        tn = t[neg]
        n = _capped_index(np.maximum(np.maximum(-tn - 1.0, _inverse(-tn) - 2.0), 0.0))
        # Confirmed with the pieces' float bounds, as in _radial_bands.
        idx[neg] = n + (~left(tn, n, tol) & (n < INDEX_CAP))
        big = t > 1.0
        tb = t[big]
        n = _capped_index(np.maximum(np.maximum(tb - 2.0, _inverse(tb - 1.0) - 2.0), 0.0))
        idx[big] = n + (~right(tb, n, tol) & (n < INDEX_CAP))
        return idx

    return glue_retraction(
        a,
        constant_family(a),
        PieceFamily(complement_at, complement_membership, complement_index),
        Clamp1D(0.0, 1.0),
        # the glued map coincides with the global clamp, which is 1-Lipschitz
        piece_lipschitz=lambda n: 1.0,
    )


def canonical_extend(dim: int = 2, kind: NormKind = NormKind(2.0)) -> PiecewiseMap:
    """Extension of the radial projection over the puncture by the constant
    map to e1; behaves identically to the sphere retraction."""
    m = extend_retraction(
        radial_projection_map(dim, kind),
        Constant(_unit_e1(dim)),
        PuncturedSpace(dim),
        constant_family(Singleton(_origin(dim))),
        piece_lipschitz=lambda n: 2.0 * max(n, 1),
    )
    return m.replace(special_points=(_origin(dim),))


def canonical_constant_extension(dim: int = 2, kind: NormKind = NormKind(2.0)) -> PiecewiseMap:
    """canonical_extend under the id "const-extend"."""
    return canonical_extend(dim, kind).replace(construction_id="const-extend")


CONSTRUCTION_IDS = ("fractional", "glue", "extend", "const-extend", "sphere", "open-ball")


def build_construction(
    construction_id: str,
    dim: int = 2,
    kind: NormKind = NormKind(2.0),
    *,
    paper_witness: bool = False,
) -> PiecewiseMap:
    """Build the named construction (canonical instance for the glue and
    extension factories)."""
    if construction_id == "fractional":
        return fractional_part_retraction()
    if construction_id == "glue":
        return canonical_glue()
    if construction_id == "extend":
        return canonical_extend(dim, kind)
    if construction_id == "const-extend":
        return canonical_constant_extension(dim, kind)
    if construction_id == "sphere":
        return sphere_retraction(dim, kind, paper_witness=paper_witness)
    if construction_id == "open-ball":
        return open_ball_retraction(dim, kind)
    raise ConstructionError(
        f"unknown construction {construction_id!r}; expected one of {CONSTRUCTION_IDS}"
    )
