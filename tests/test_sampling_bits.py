"""Samplers and row-scaling rules against the code they replaced, bit for bit.

The ``ref_*`` functions are the earlier allocate-and-broadcast code:
``rng.normal`` and ``rng.uniform`` draws of fresh arrays, one draw pair per
member of a diagonal piece found with ``np.unique``, a union's member
counts by ``np.sum(which == i)``, singletons by ``np.tile``, and row
scaling by ``[:, None]`` broadcasts.  Norms come from ``np.linalg.norm``,
which ``core.norm`` equals bit for bit (see test_core).  Every sampler,
rule and membership test that now fills buffers or scales column by column
must return the same array, signs of zeros included, for row widths on
both sides of COLUMN_LOOP_WIDTH, and ``sample_pieces`` must equal these
references drawn one piece at a time, generator states included.  The
gaussian step of the continuity pairs is checked against its reference in
test_batched_continuity.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcretract.constructions import (
    ConstructionError,
    RadialProjection,
    open_ball_retraction,
    sphere_retraction,
)
from pcretract.core import (
    COLUMN_LOOP_WIDTH,
    DiagonalBands,
    FiniteUnion,
    Interval,
    NormBand,
    NormKind,
    Singleton,
    sample_pieces,
)
from pcretract.verification import Sampler


def ref_norm(x, kind):
    return np.linalg.norm(x, ord=np.inf if kind.is_max else kind.p, axis=-1)


def ref_unit_rows(g, kind):
    r = ref_norm(g, kind)
    return g / np.where(r == 0.0, 1.0, r)[:, None]


def ref_directions(rng, n, dim, kind):
    return ref_unit_rows(rng.normal(size=(n, dim)), kind)


def ref_sample(desc, rng, n, cap=8.0):
    if isinstance(desc, NormBand):
        dirs = ref_directions(rng, n, desc.ndim, desc.kind)
        hi = desc.hi if math.isfinite(desc.hi) else max(desc.lo, 1.0) + cap
        return dirs * rng.uniform(desc.lo, hi, size=n)[:, None]
    if isinstance(desc, DiagonalBands):
        which = np.sort(rng.integers(0, desc.m - desc.start + 1, size=n)) + desc.start
        if desc.kind is None:
            lo = which.astype(float)
            return (lo + ((lo + desc.width) - lo) * rng.random(n))[:, None]
        ns, counts = np.unique(which, return_counts=True)
        g, radii, end = np.empty((n, desc.ndim)), np.empty(n), 0
        for k, c in zip(ns, counts):
            g[end:end + c] = rng.normal(size=(c, desc.ndim))
            radii[end:end + c] = rng.uniform(float(k), float(k) + desc.width, size=c)
            end += c
        return ref_unit_rows(g, desc.kind) * radii[:, None]
    if isinstance(desc, FiniteUnion):
        which = rng.integers(0, len(desc.members), size=n)
        chunks = [ref_sample(m, rng, int(np.sum(which == i)), cap)
                  for i, m in enumerate(desc.members) if np.any(which == i)]
        return np.concatenate(chunks) if chunks else np.empty((0, desc.dim))
    if isinstance(desc, Singleton):
        return np.tile(np.asarray(desc.point, dtype=float), (n, 1))
    assert isinstance(desc, Interval)
    return rng.uniform(desc.lo, desc.hi, size=(n, 1))


def ref_draw(s, n):
    rng = np.random.default_rng(np.random.SeedSequence([s.seed, 11]))
    if s.strategy == "sphere":
        return ref_directions(rng, n, s.dim, s.kind)
    if s.strategy == "ball":
        radii = np.random.default_rng(np.random.SeedSequence([s.seed, 13])).uniform(s.lo, s.hi, size=n)
        return ref_directions(rng, n, s.dim, s.kind) * radii[:, None]
    return ref_sample(s.descriptor, rng, n)


def ref_sphere_rule(pts, kind, t):
    r = ref_norm(pts, kind)
    out = pts / np.where(r == 0.0, 1.0, r)[:, None]
    out[r == 0.0] = t
    return out


def ref_open_ball_rule(pts, kind):
    r = ref_norm(pts, kind)
    out = ((r - np.floor(r)) / np.where(r == 0.0, 1.0, r))[:, None] * pts
    out[r == 0.0] = 0.0
    return out


KINDS = [NormKind(1.0), NormKind(1.5), NormKind(2.0), NormKind(400.0), NormKind(math.inf)]
COUNTS = [0, 1, 257, 2000]
# Both sides of the column-loop cutoff.
DIMS = [1, 2, 3, COLUMN_LOOP_WIDTH - 1, COLUMN_LOOP_WIDTH, COLUMN_LOOP_WIDTH + 1]


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def descriptors(draw):
    d = draw(st.sampled_from(DIMS))
    kind = draw(st.sampled_from(KINDS))
    lo = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    hi = draw(st.sampled_from([lo, lo + 1.5, math.inf]))
    band = NormBand(kind, lo, hi, d)
    m = draw(st.integers(0, 200))
    offset = draw(st.lists(st.floats(-10, 10), min_size=d, max_size=d))
    return draw(st.sampled_from([
        band,
        DiagonalBands(kind, draw(st.integers(0, m)), m, d),
        DiagonalBands(None, -m, m, 1),
        DiagonalBands(None, draw(st.integers(-m, m)), m, 1),
        FiniteUnion((Singleton((0.0,) * d), band)),
        FiniteUnion((band, Singleton(offset))),
        Singleton(offset),
        Interval(-1.0, 2.0),
    ]))


class TestDescriptorSamples:
    @given(desc=descriptors(), n=st.sampled_from(COUNTS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_reference(self, desc, n, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(over="ignore"):  # p:400 norms of large draws overflow, on both sides
            got = desc.sample(got_rng, n)
            want = ref_sample(desc, want_rng, n)
        assert_same_bits(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_many_members(self):
        for desc in (DiagonalBands(NormKind(1.5), 0, 200, 3), DiagonalBands(None, -200, 200, 1)):
            for seed in range(5):
                assert_same_bits(desc.sample(np.random.default_rng(seed), 2000),
                                 ref_sample(desc, np.random.default_rng(seed), 2000))

    @given(desc=descriptors(), n=st.sampled_from([0, 1, 257]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_exactly_n_rows(self, desc, n, seed):
        # Every draw gives n rows, which sample_pieces and the checks rely on.
        with np.errstate(over="ignore"):
            assert desc.sample(np.random.default_rng(seed), n).shape == (n, desc.dim)


def _diagonal_pieces(kind, d, ms):
    """The witness pieces of ``fractional`` (kind None) or ``open-ball``."""
    return [DiagonalBands(None, -m, m, 1) if kind is None else DiagonalBands(kind, 0, m, d) for m in ms]


class TestSamplePieces:
    """sample_pieces against ref_sample drawn piece by piece."""

    @staticmethod
    def _check(pieces, n, seeds, shared):
        def rngs():
            if shared:
                rng = np.random.default_rng(seeds[0])
                return [rng] * len(pieces)
            return [np.random.default_rng(s) for s in seeds[:len(pieces)]]

        got_rngs, want_rngs = rngs(), rngs()
        with np.errstate(over="ignore"):
            got = sample_pieces(list(zip(pieces, got_rngs)), n)
            want = [ref_sample(p, rng, n) for p, rng in zip(pieces, want_rngs)]
        assert_same_bits(got, np.concatenate(want))
        for g, w in zip(got_rngs, want_rngs):
            assert g.bit_generator.state == w.bit_generator.state

    @given(family=st.sampled_from(["fractional", "open-ball"]), kind=st.sampled_from(KINDS),
           d=st.sampled_from(DIMS), ms=st.lists(st.integers(0, 200) | st.just(0), min_size=1, max_size=12),
           n=st.sampled_from(COUNTS), shared=st.booleans(),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=12, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_same_bits_and_states_as_one_piece_at_a_time(self, family, kind, d, ms, n, shared, seeds):
        if family == "fractional":
            kind, d = None, 1
        self._check(_diagonal_pieces(kind, d, ms), n, seeds, shared)

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("kind", [None, NormKind(1.5)])
    def test_repeated_and_far_pieces(self, kind, shared):
        # Repeats, piece 0, and pieces whose members far outnumber the draw
        # (drawn members found by sorting instead of counting).
        ms = [0, 3, 3, 0, 200, 10**6, 2**52 - 1, 3]
        for n in COUNTS:
            self._check(_diagonal_pieces(kind, 3, ms), n, list(range(len(ms))), shared)

    @pytest.mark.parametrize("shared", [False, True])
    def test_other_pieces_draw_one_at_a_time(self, shared):
        d = 3
        band = NormBand(NormKind(2.0), 0.5, 2.0, d)
        mixes = [
            [DiagonalBands(NormKind(2.0), 0, 4, d), band],  # not all diagonal
            [DiagonalBands(NormKind(2.0), 0, 4, d), DiagonalBands(NormKind(1.0), 0, 4, d)],  # two kinds
            [FiniteUnion((Singleton((0.0,) * d), band)), Singleton((1.0, 2.0, 3.0))],
        ]
        for pieces in mixes:
            for n in COUNTS:
                self._check(pieces, n, [5, 6], shared)

    def test_no_pieces(self):
        with pytest.raises(ValueError, match="at least one piece"):
            sample_pieces([], 10)


class TestSamplerDraws:
    @given(strategy=st.sampled_from(["ball", "sphere", "set"]),
           desc=descriptors(), kind=st.sampled_from(KINDS), n=st.sampled_from(COUNTS[1:]),
           lo=st.sampled_from([0.0, 0.25, 2.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_reference(self, strategy, desc, kind, n, lo, seed):
        s = Sampler(seed, strategy, dim=desc.dim, kind=kind, lo=lo, hi=lo + 1.0, descriptor=desc)
        with np.errstate(over="ignore"):
            assert_same_bits(s.draw(n), ref_draw(s, n))


def _points(seed, n, d):
    """Rows of mixed magnitudes, with zero rows and signed zero coordinates."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    pts[rng.random(size=(n, d)) < 0.1] = -0.0
    pts[rng.random(size=(n, d)) < 0.1] = 0.0
    pts[rng.random(size=n) < 0.05] = 0.0
    return pts


class TestRowScalingRules:
    @given(d=st.sampled_from(DIMS), kind=st.sampled_from(KINDS), n=st.sampled_from(COUNTS),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_reference(self, d, kind, n, seed):
        pts = _points(seed, n, d)
        e1 = np.eye(1, d)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(sphere_retraction(d, kind).rule(pts), ref_sphere_rule(pts, kind, e1))
            got = open_ball_retraction(d, kind).rule(pts)
            assert_same_bits(got, ref_open_ball_rule(pts, kind))
            r = ref_norm(pts, kind)
            off = r > 0.0
            assert_same_bits(RadialProjection(kind).apply(pts[off]), pts[off] / r[off][:, None])
            if not off.all():
                with pytest.raises(ConstructionError):
                    RadialProjection(kind).apply(pts)

    @given(d=st.sampled_from(DIMS), n=st.sampled_from(COUNTS), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([0.0, 1e-9, 1.0, 100.0]))
    @settings(max_examples=150, deadline=None)
    def test_offset_membership(self, d, n, seed, tol):
        pts = _points(seed, n, d)
        point = _points(seed + 1, 1, d)[0]
        got = Singleton(tuple(point))._contains(pts, tol)
        assert np.array_equal(got, np.all(np.abs(pts - point) <= tol, axis=1))
