"""Vectors, norms, closed-set descriptors and piece families.

Every set constructible through this module is closed by construction: the
descriptor grammar only offers closed primitives (closed intervals, closed
norm bands, singletons) and closure-preserving combinators (finite unions,
diagonal band unions).  There is deliberately no runtime closedness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np


class DimensionMismatch(ValueError):
    """A point's dimension does not match the set it is tested against."""


def as_vector(coords) -> np.ndarray:
    """Validate and freeze a point of R^d (d >= 1, all coordinates finite)."""
    v = np.array(coords, dtype=float).reshape(-1)
    if v.size < 1:
        raise ValueError("a vector needs at least one coordinate")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector coordinates must be finite")
    v.flags.writeable = False
    return v


def as_points(x, dim: int | None = None) -> np.ndarray:
    """Coerce input to an (n, d) batch of points; validates finiteness."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValueError("expected a point or an (n, d) batch of points")
    if not np.all(np.isfinite(a)):
        raise ValueError("points must have finite coordinates")
    if dim is not None and a.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {a.shape[1]}")
    return a


@dataclass(frozen=True)
class NormKind:
    """Which norm R^d carries: a p-norm with p >= 1, or the max-norm (p = inf)."""

    p: float = 2.0

    def __post_init__(self):
        if not (self.p >= 1.0):  # also rejects NaN
            raise ValueError(f"p-norm parameter must satisfy p >= 1, got {self.p}")

    @property
    def is_max(self) -> bool:
        return math.isinf(self.p)

    def label(self) -> str:
        if self.is_max:
            return "max"
        p = self.p
        return f"p:{int(p)}" if float(p).is_integer() else f"p:{p!r}"

    @classmethod
    def parse(cls, text: str) -> "NormKind":
        t = text.strip().lower()
        if t in ("max", "inf", "p:inf"):
            return cls(math.inf)
        if t.startswith("p:"):
            try:
                p = float(t[2:])
            except ValueError:
                pass
            else:
                return cls(p)  # a p below 1 or NaN raises with its own reason
        raise ValueError(f"unrecognized norm {text!r}; use 'p:<value>' or 'max'")


EUCLIDEAN = NormKind(2.0)


# numpy reduces a row of fewer than 8 elements strictly left to right, but
# one row at a time, which is slow for short rows; from 8 on it keeps 8
# partial sums, which a left-to-right loop does not reproduce.
COLUMN_LOOP_WIDTH = 8


def fold_columns(a: np.ndarray, f: Callable, op: np.ufunc) -> np.ndarray:
    """Row-wise ``op.reduce(f(a), axis=1)`` of an (n, d) array, d >= 1.

    Below COLUMN_LOOP_WIDTH columns this loops over the columns instead,
    which does the same float operations in the same order, so it gives the
    same bits in a fraction of the time.  ``f`` acts elementwise and returns
    a new array.
    """
    if a.shape[1] >= COLUMN_LOOP_WIDTH:
        return op.reduce(f(a), axis=1)
    r = f(a[:, 0])
    for j in range(1, a.shape[1]):
        op(r, f(a[:, j]), out=r)
    return r


def by_columns(a: np.ndarray, *steps) -> np.ndarray:
    """A new (n, d) array: a with each ``(ufunc, operand)`` step applied in
    turn, as ``a = ufunc(a, operand)``.  An operand is an (n, 1) array, one
    value per row, or a (d,) array, one value per column.

    Below COLUMN_LOOP_WIDTH columns this runs column by column, since
    numpy's loop over a broadcast short row handles d elements at a time.
    The steps act elementwise, so both ways give the same bits.
    """
    if a.shape[1] >= COLUMN_LOOP_WIDTH:
        for op, b in steps:
            a = op(a, b)
        return a
    out = np.empty(a.shape)
    for j in range(a.shape[1]):
        col, src = out[:, j], a[:, j]
        for op, b in steps:
            op(src, b[:, 0] if b.ndim == 2 else b[j], out=col)
            src = col
    return out


def norm(x, kind: NormKind = EUCLIDEAN) -> Union[float, np.ndarray]:
    """p-norm or max-norm of a point or an (n, d) batch.

    A batch's norms equal ``np.linalg.norm(x, ord=p, axis=-1)`` bit for bit:
    max of |x_j|, sum of |x_j|, sqrt of the sum of x_j*x_j, or the sum of
    |x_j|**p to the power 1/p, each summed left to right over the columns
    for rows of fewer than 8 coordinates and by numpy's own reduction for
    wider rows (see fold_columns).  A point is read as a one-row batch, so
    its norm has the bits of that row.  An (n, 0) batch gives zeros and any
    other shape raises ``ValueError``.  Sums of |x_j|**p are not rescaled,
    so large p can overflow to inf or underflow to 0.  A NaN coordinate
    raises ``ValueError``.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        return float(norm(a[None], kind)[0])
    if a.ndim != 2:
        raise ValueError(f"norm takes a point or an (n, d) batch, got shape {a.shape}")
    if a.shape[1] == 0:
        return np.zeros(len(a))
    if kind.is_max:
        r = fold_columns(a, np.abs, np.maximum)
    elif kind.p == 1.0:
        r = fold_columns(a, np.abs, np.add)
    elif kind.p == 2.0:
        r = np.sqrt(fold_columns(a, lambda c: c * c, np.add))
    else:
        p = kind.p
        r = fold_columns(a, lambda c: np.abs(c) ** p, np.add) ** (1.0 / p)
    # A norm is NaN exactly when a coordinate is: the terms are nonnegative.
    if np.any(np.isnan(r)):
        raise ValueError("norm of a NaN coordinate is undefined")
    return r


@dataclass(frozen=True)
class Tolerance:
    """Numerical slack: membership_tol for boundary comparisons, identity_tol
    for pointwise map identities."""

    membership_tol: float = 1e-9
    identity_tol: float = 1e-12

    def __post_init__(self):
        for name in ("membership_tol", "identity_tol"):
            value = getattr(self, name)
            # An infinite tolerance would pass every check it bounds.
            if not 0.0 < value < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be a finite number > 0, got {value}")


# Every default tolerance, in the package and the CLI, reads this one instance.
DEFAULT_TOLERANCE = Tolerance()
# Unbounded sets are drawn near the unit ball, where the retracts live: a band
# with hi = inf up to max(lo, 1) + SAMPLE_CAP.
SAMPLE_CAP = 8.0


# ---------------------------------------------------------------------------
# Set descriptors


class Region:
    """Subset of R^d with a membership test and, for a closed set, a
    seeded sampler.

    Subclasses implement ``dim``, ``_contains`` on an (n, d) batch and,
    where the set is drawn, ``sample``; ``contains`` is the one public
    wrapper.  ``tol`` is boundary slack, so floating-point boundary points
    do not spuriously fall outside.
    """

    @property
    def dim(self) -> int:
        """Ambient dimension d; by default the ``ndim`` field."""
        return self.ndim

    def contains(self, x, tol=DEFAULT_TOLERANCE.membership_tol):
        """Membership test; a bool for a single point, a boolean array for
        an (n, d) batch."""
        single = np.asarray(x, dtype=float).ndim == 1
        out = self._contains(as_points(x, self.dim), float(tol))
        return bool(out[0]) if single else out

    def _contains(self, pts: np.ndarray, tol: float) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n seeded points of the set, as an (n, d) array: every draw gives
        exactly n rows, so a batch of pieces splits into blocks of n.

        An unbounded set is drawn at the scale SAMPLE_CAP sets.  Sampling
        aims at coverage for property checks, not at measure uniformity.
        The calls a draw makes on ``rng`` are part of its contract:
        sample_pieces, which draws several sets at once (DiagonalBands of
        one kind and dimension as one batch), must leave every generator
        where this method leaves it.
        """
        raise NotImplementedError


class SetDescriptor(Region):
    """Closed subset of R^d described structurally; serializes to JSON."""

    def to_json(self) -> dict:
        raise NotImplementedError

    def subset_of(self, other: "SetDescriptor") -> bool:
        """True when this set lies in ``other`` by a comparison of the bound
        floats that membership itself uses, at tolerance 0; False means not
        shown.  Each variant compares bounds only with its own variant; a
        union ``other`` holds the set when one of its members does."""
        if isinstance(other, FiniteUnion):
            return any(self.subset_of(m) for m in other.members)
        return False

    def __str__(self) -> str:
        import json

        return json.dumps(self.to_json())


@dataclass(frozen=True)
class Interval(SetDescriptor):
    """Closed interval [lo, hi] in R (d = 1)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def dim(self) -> int:
        return 1

    def _contains(self, pts, tol):
        t = pts[:, 0]
        return (t >= self.lo - tol) & (t <= self.hi + tol)

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, 1))

    def subset_of(self, other):
        if isinstance(other, Interval):
            return other.lo <= self.lo and self.hi <= other.hi
        return super().subset_of(other)

    def to_json(self):
        return {"variant": "interval", "lo": self.lo, "hi": self.hi}


def _unit_rows(g: np.ndarray, kind: NormKind, radii: Optional[np.ndarray] = None) -> np.ndarray:
    """Each row of g divided by its norm, then times radii[i] when given, in
    one column pass; a zero row stays 0."""
    r = norm(g, kind)
    steps = [(np.divide, np.where(r == 0.0, 1.0, r)[:, None])]
    if radii is not None:
        steps.append((np.multiply, radii[:, None]))
    return by_columns(g, *steps)


def gaussian_directions(rng: np.random.Generator, n: int, dim: int, kind: NormKind) -> np.ndarray:
    """n unit vectors under ``kind``: gaussian draws divided by their norm.
    One ``rng.standard_normal`` call, which gives the bits of
    ``rng.normal(size=(n, dim))`` without its ``0 + 1 * z`` pass; a zero
    draw, astronomically unlikely, stays 0."""
    return _unit_rows(rng.standard_normal(size=(n, dim)), kind)


def _json_num(v: float):
    return "inf" if math.isinf(v) else v


@dataclass(frozen=True)
class NormBand(SetDescriptor):
    """{x in R^d : lo <= ||x|| <= hi}; hi may be +inf."""

    kind: NormKind
    lo: float
    hi: float
    ndim: int

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise ValueError(f"norm band requires 0 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if self.ndim < 1:
            raise ValueError("band dimension must be >= 1")

    def _contains(self, pts, tol):
        r = norm(pts, self.kind)
        return (r >= self.lo - tol) & (r <= self.hi + tol)

    def sample(self, rng, n):
        g = rng.standard_normal(size=(n, self.ndim))
        hi = self.hi if math.isfinite(self.hi) else max(self.lo, 1.0) + SAMPLE_CAP
        return _unit_rows(g, self.kind, rng.uniform(self.lo, hi, size=n))

    def subset_of(self, other):
        if isinstance(other, NormBand) and (other.kind, other.ndim) == (self.kind, self.ndim):
            return other.lo <= self.lo and self.hi <= other.hi
        return super().subset_of(other)

    def to_json(self):
        return {
            "variant": "norm_band",
            "norm": self.kind.label(),
            "lo": self.lo,
            "hi": _json_num(self.hi),
            "dim": self.ndim,
        }


@dataclass(frozen=True)
class Singleton(SetDescriptor):
    """One point of R^d."""

    point: tuple

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(float(c) for c in self.point))
        as_vector(self.point)

    @property
    def dim(self) -> int:
        return len(self.point)

    def _contains(self, pts, tol):
        # x - 0.0 is x bit for bit (signed zeros too), so the origin needs no offset copy.
        offset = by_columns(pts, (np.subtract, np.asarray(self.point))) if any(self.point) else pts
        return fold_columns(offset, np.abs, np.maximum) <= tol

    def sample(self, rng, n):
        out = np.empty((n, self.dim))
        out[:] = self.point
        return out

    def subset_of(self, other):
        # Each rule is _contains at tolerance 0, where lo - 0.0 is lo and
        # hi + 0.0 is hi, decided on the floats without a batch.
        if other.dim != self.dim:
            return False
        if isinstance(other, Singleton):
            return self.point == other.point
        if isinstance(other, FiniteUnion):
            return super().subset_of(other)
        if isinstance(other, NormBand):
            r = norm(self.point, other.kind)
            return other.lo <= r <= other.hi
        return bool(other._contains(np.array([self.point]), 0.0)[0])

    def to_json(self):
        return {"variant": "singleton", "point": list(self.point)}


@dataclass(frozen=True)
class FiniteUnion(SetDescriptor):
    """Finite union of closed descriptors of equal dimension."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("a finite union needs at least one member")
        dims = {m.dim for m in self.members}
        if len(dims) != 1:
            raise DimensionMismatch(f"union members disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def _contains(self, pts, tol):
        out = np.zeros(len(pts), dtype=bool)
        for m in self.members:
            rest = ~out
            if not rest.any():
                break
            out[rest] = m._contains(pts[rest], tol)
        return out

    def sample(self, rng, n):
        # A member drawn 0 times gives a (0, d) array and leaves rng as it was.
        counts = np.bincount(rng.integers(0, len(self.members), size=n), minlength=len(self.members))
        return np.concatenate([m.sample(rng, k) for m, k in zip(self.members, counts.tolist())])

    def subset_of(self, other):
        return all(m.subset_of(other) for m in self.members)

    def to_json(self):
        return {"variant": "finite_union", "members": [m.to_json() for m in self.members]}


# Band indices must stay below 2**52: beyond it n + 1 - 1/(m+1) rounds to an
# integer, so a member's endpoints stop being the exact band bounds.
DIAGONAL_INDEX_LIMIT = 2**52
# Diagonal pieces with at most this many members serialize as finite unions.
EXPANDED_JSON_CAP = 1001


def diagonal_membership(t: np.ndarray, start, m, tol: float) -> np.ndarray:
    """Whether each t lies in the union over n = start..m of
    [n - tol, (n + 1 - 1/(m+1)) + tol]: membership in a DiagonalBands piece.
    ``start`` and ``m`` are integers, or float arrays with one piece per t.

    Member n holds t when n - tol <= t and t <= (n + w) + tol.  The first
    bound holds up to some n and the second from some n on, so the members
    holding t are consecutive.  Member floor(t) meets the first bound, so if
    a lower member holds t, floor(t) does too; a member above floor(t) + 1
    holds t only when tol >= 1, and then floor(t) does too.  So members
    floor(t) and floor(t) + 1, clipped to [start, m], decide.  The
    comparisons repeat a member's float operations, so the result is
    bit-for-bit the expanded union's.
    """
    w = 1.0 - 1.0 / (m + 1)
    base = np.floor(t)
    out = np.zeros(len(t), dtype=bool)
    for shift in (0.0, 1.0):
        n = np.minimum(np.maximum(base + shift, start), m)
        out |= (t >= n - tol) & (t <= (n + w) + tol)
    return out


@dataclass(frozen=True)
class DiagonalBands(SetDescriptor):
    """Union over n = start..m of {n <= t <= n + 1 - 1/(m+1)}, where t is the
    coordinate (``kind`` None, d = 1) or the norm ||x|| under ``kind``.

    Piece m of a diagonal re-enumeration of a doubly-indexed closed cover.
    It equals ``expand()`` point for point and draw for draw, but membership
    costs O(1) per point instead of O(m - start).
    """

    kind: Optional[NormKind]
    start: int
    m: int
    ndim: int

    def __post_init__(self):
        if self.kind is None and self.ndim != 1:
            raise ValueError("coordinate bands live in dimension 1")
        if self.ndim < 1:
            raise ValueError("band dimension must be >= 1")
        if self.kind is not None and self.start < 0:
            raise ValueError("norm bands start at n >= 0")
        if self.m < 0:  # the width 1 - 1/(m+1) needs m + 1 >= 1
            raise ValueError(f"diagonal bands need m >= 0, got m={self.m}")
        if not (-DIAGONAL_INDEX_LIMIT < self.start <= self.m < DIAGONAL_INDEX_LIMIT):
            raise ValueError(
                "diagonal band indices need -2**52 < start <= m < 2**52,"
                f" got start={self.start}, m={self.m}"
            )

    @property
    def width(self) -> float:
        return 1.0 - 1.0 / (self.m + 1)

    def member(self, n: int) -> SetDescriptor:
        lo = float(n)
        hi = lo + self.width
        return Interval(lo, hi) if self.kind is None else NormBand(self.kind, lo, hi, self.ndim)

    def expand(self) -> FiniteUnion:
        """The same set as an explicit union of its m - start + 1 members."""
        return FiniteUnion(tuple(self.member(n) for n in range(self.start, self.m + 1)))

    def _contains(self, pts, tol):
        t = pts[:, 0] if self.kind is None else norm(pts, self.kind)
        return diagonal_membership(t, self.start, self.m, tol)

    def sample(self, rng, n):
        # The one-piece batch of sample_pieces: the generator calls and bits
        # of expand().sample (see _draw_bands).
        return _draw_bands([(self, rng)], n)

    def subset_of(self, other):
        # Each member n of self is a member of other, whose upper bound
        # n + width is no lower: float addition is monotone.
        if isinstance(other, DiagonalBands) and (other.kind, other.ndim) == (self.kind, self.ndim):
            return other.start <= self.start and self.m <= other.m and self.width <= other.width
        return super().subset_of(other)

    def to_json(self):
        if self.m - self.start < EXPANDED_JSON_CAP:
            return self.expand().to_json()
        along = {"coordinate": 0} if self.kind is None else {"norm": self.kind.label()}
        return {"variant": "diagonal_bands", **along,
                "start": self.start, "m": self.m, "dim": self.ndim}


def _drawn_members(choice: np.ndarray, span: int):
    """The distinct values of ``choice`` (integers in [0, span)), ascending,
    and how often each occurs.  One bincount when span is not much larger
    than the draw; a sort when it is, so a far piece costs no span-sized
    array."""
    if span > 8 * len(choice) + 64:
        return np.unique(choice, return_counts=True)
    counts = np.bincount(choice)
    members = np.flatnonzero(counts)
    return members, counts[members]


def _draw_bands(draws: Sequence[tuple], n: int) -> np.ndarray:
    """n points of each (DiagonalBands, generator) pair, all of one kind and
    dimension, in one (len(draws) * n, d) array.

    Each piece calls its generator as ``expand().sample`` does: the member
    choice, then for each drawn member in member order its uniforms (along
    the coordinate) or its normals then its uniforms (along a norm).  Those
    draws fill the piece's rows of one buffer, member by member, so they
    land sorted by member.  Member k's uniform(lo, hi) is lo + (hi - lo) * u
    with lo = float(k) and hi = lo + width, as in member(k).  Each piece
    turns its uniforms into radii (or coordinates) in place, one pass over
    its rows from its scalar width, and the whole batch's rows are then
    normalized and scaled in one pass.
    """
    kind, d = draws[0][0].kind, draws[0][0].ndim
    radii = np.empty(len(draws) * n)
    g = None if kind is None else np.empty((len(radii), d))
    for i, (band, rng) in enumerate(draws):
        a = i * n
        span = band.m - band.start + 1
        members, counts = _drawn_members(rng.integers(0, span, size=n), span)
        r = radii[a:a + n]
        if kind is None:
            rng.random(out=r)
        else:
            for c in counts.tolist():
                rng.standard_normal(out=g[a:a + c])
                rng.random(out=radii[a:a + c])
                a += c
        lo = np.repeat((members + band.start).astype(float), counts)
        hi = lo + band.width
        r *= np.subtract(hi, lo, out=hi)
        r += lo
    return radii[:, None] if kind is None else _unit_rows(g, kind, radii)


def sample_pieces(draws: Sequence[tuple], n: int) -> np.ndarray:
    """n points of each (piece, generator) pair of ``draws``, drawn in
    order, as one (len(draws) * n, d) array.

    Every piece makes on its generator exactly the calls of
    ``piece.sample(rng, n)`` and gives the same rows, bit for bit, so a
    generator shared by several pieces ends where drawing them one after
    another leaves it.  When every piece is a DiagonalBands of one kind and
    dimension, the batch is drawn by one routine (the one
    ``DiagonalBands.sample`` uses), which scales the rows once for all
    pieces; any other list is drawn piece by piece.
    """
    if not draws:
        raise ValueError("need at least one piece to draw")
    first = draws[0][0]
    if all(isinstance(p, DiagonalBands) and p.kind == first.kind and p.ndim == first.ndim for p, _ in draws):
        return _draw_bands(draws, n)
    return np.concatenate([p.sample(rng, n) for p, rng in draws])


# ---------------------------------------------------------------------------
# Piece families


@dataclass(frozen=True, eq=False)
class PieceFamily:
    """Increasing sequence n -> closed set, the certificate carried by a
    witnessed piecewise map.  Every family claims that piece(n) is contained
    in piece(n+1); the cover check decides the claim from the pieces' bounds
    (``SetDescriptor.subset_of``) and sample-tests it where that shows nothing.

    A family is its pieces ``piece_at(n)``, their closed-form
    ``membership(pts, idx, tol)`` and its ``index(pts, tol)``.  membership
    tells whether each row pts[i] of a validated batch lies in
    piece(idx[i]), idx int64 and >= 0; every check tests membership
    through it, so it must repeat the pieces' own float operations and give
    the booleans of ``piece(idx[i]).contains``.  index names per row an
    int64 n >= 0 whose piece holds the row under tol, or -1 when it finds
    none; only an index saturated at the last piece it names may miss.

    The checks draw several pieces at once through :func:`sample_pieces`.
    Pieces that are all DiagonalBands of one kind and dimension (the
    ``fractional`` and ``open-ball`` witnesses) draw as one batch, with the
    generator calls and bits of drawing each piece alone; any other pieces
    draw one at a time through their own ``sample``.
    """

    piece_at: Callable[[int], SetDescriptor]
    membership: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    index: Callable[[np.ndarray, float], np.ndarray]


def piece(family: PieceFamily, n: int) -> SetDescriptor:
    """The n-th witness piece (n >= 0)."""
    n = int(n)
    if n < 0:
        raise ValueError("piece index must be >= 0")
    return family.piece_at(n)


def constant_family(descriptor: SetDescriptor) -> PieceFamily:
    """Every piece is ``descriptor``: index 0 where it holds a row, else -1."""

    def index(pts, tol):
        return descriptor._contains(pts, tol).astype(np.int64) - 1

    return PieceFamily(lambda n: descriptor, lambda pts, idx, tol: descriptor._contains(pts, tol), index)


def union_family(a: PieceFamily, b: PieceFamily) -> PieceFamily:
    """Piece n is piece(a, n) ∪ piece(b, n); increasing when a and b are.
    The index is a's, else b's, which indexes only the rows a leaves at -1."""

    def index(pts, tol):
        idx = a.index(pts, tol)
        rest = idx < 0
        if rest.any():
            idx[rest] = b.index(np.compress(rest, pts, axis=0), tol)
        return idx

    return PieceFamily(
        lambda n: FiniteUnion((piece(a, n), piece(b, n))),
        lambda pts, idx, tol: a.membership(pts, idx, tol) | b.membership(pts, idx, tol),
        index,
    )
