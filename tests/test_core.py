import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import descriptor_from_json
from pcretract.core import (
    DiagonalBands,
    DimensionMismatch,
    FiniteUnion,
    Interval,
    NormBand,
    NormKind,
    PieceFamily,
    Singleton,
    Tolerance,
    as_vector,
    constant_family,
    norm,
    piece,
    union_family,
)
from pcretract.constructions import PuncturedSpace

# Keep magnitudes away from the subnormal range so relative-error reasoning holds.
finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e6, max_value=1e6
).map(lambda v: 0.0 if abs(v) < 1e-9 else v)


class TestVectors:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])
        with pytest.raises(ValueError):
            as_vector([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector([])

    def test_immutable(self):
        v = as_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            v[0] = 3.0


class TestNorm:
    def test_three_four_five(self):
        assert norm([3.0, 4.0], NormKind(2.0)) == 5.0

    def test_max_norm(self):
        assert norm([1.0, -2.0, 3.0], NormKind(math.inf)) == 3.0

    def test_zero_vector(self):
        assert norm([0.0, 0.0], NormKind(1.0)) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            norm([float("nan"), 0.0], NormKind(2.0))

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            NormKind(0.5)

    def test_parse_labels(self):
        assert NormKind.parse("p:2") == NormKind(2.0)
        assert NormKind.parse("max").is_max
        assert NormKind.parse("p:1.5").p == 1.5
        with pytest.raises(ValueError):
            NormKind.parse("chebyshev")
        assert NormKind(2.0).label() == "p:2"
        assert NormKind(math.inf).label() == "max"

    @given(
        st.lists(finite_floats, min_size=1, max_size=5),
        st.floats(min_value=-100, max_value=100, allow_nan=False).map(
            lambda v: 0.0 if abs(v) < 1e-9 else v
        ),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    )
    @settings(max_examples=200, deadline=None)
    def test_absolute_homogeneity(self, coords, alpha, p):
        kind = NormKind(p)
        n1 = norm(np.asarray(coords) * alpha, kind)
        n2 = abs(alpha) * norm(coords, kind)
        assert n1 == pytest.approx(n2, rel=1e-12, abs=1e-300)

    @given(
        st.lists(finite_floats, min_size=3, max_size=3),
        st.lists(finite_floats, min_size=3, max_size=3),
        st.sampled_from([1.0, 2.0, 4.0, math.inf]),
    )
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, p):
        kind = NormKind(p)
        lhs = norm(np.asarray(a) + np.asarray(b), kind)
        assert lhs <= norm(a, kind) + norm(b, kind) + 1e-12 * max(1.0, lhs)


KERNEL_PS = [1.0, 1.5, 2.0, 3.0, 400.0, math.inf]


def _magnitude_points(rng, n, d):
    """Signed values from 1e-300 to 1e300, with some exact zeros.  Half the
    rows share one scale, so that their terms are close enough in size for
    the order of summation to show in the last bit."""
    scale = 10.0 ** rng.uniform(-300, 300, size=(n, d))
    scale[: n // 2] = scale[: n // 2, :1]
    x = rng.normal(size=(n, d)) * scale
    x[rng.random(size=(n, d)) < 0.1] = 0.0
    return x


class TestNormKernel:
    """A batch's norm must equal np.linalg.norm(axis=-1) bit for bit: the column loop
    below 8 coordinates and numpy's reduction from 8 on."""

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=300),
        st.sampled_from(KERNEL_PS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_linalg_norm(self, d, n, p, seed):
        rng = np.random.default_rng(seed)
        x = _magnitude_points(rng, n, d)
        kind = NormKind(p)
        with np.errstate(over="ignore", under="ignore"):
            for a in (x, x[:0]):
                want = np.linalg.norm(a, ord=p, axis=-1)
                got = norm(a, kind)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)
            # A single point's norm is its one-row batch's.
            point = _magnitude_points(rng, 1, d)
            got = norm(point[0], kind)
            assert isinstance(got, float)
            assert np.array_equal(got, norm(point, kind)[0])

    @pytest.mark.parametrize("d", [1, 3, 7, 8, 12])
    @pytest.mark.parametrize("p", KERNEL_PS)
    def test_nan_raises_and_inf_is_inf(self, d, p):
        x = np.ones((4, d))
        x[2, d - 1] = np.nan
        for a in (x, x[2]):
            with pytest.raises(ValueError, match="NaN"):
                norm(a, NormKind(p))
        for v in (np.inf, -np.inf):
            x[2, d - 1] = v
            r = norm(x, NormKind(p))
            assert r[2] == np.inf and np.all(np.isfinite(np.delete(r, 2)))
            assert norm(x[2], NormKind(p)) == np.inf

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_origin_tests_match_axis_forms(self, d, n, seed):
        rng = np.random.default_rng(seed)
        x = _magnitude_points(rng, n, d)
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.1] = -0.0
        point = tuple(rng.choice([0.0, 1e-10, -1.0], size=d))
        s = Singleton(point)
        for tol in (0.0, 1e-9):
            assert np.array_equal(
                s.contains(x, tol), np.max(np.abs(x - np.asarray(point)), axis=1) <= tol
            )
        assert np.array_equal(PuncturedSpace(d).contains(x), np.any(x != 0.0, axis=1))


class TestDescriptors:
    def test_contains_helper(self):
        assert Interval(0, 1).contains([0.5])

    def test_band_membership(self):
        band = NormBand(NormKind(2.0), 1.0, 2.0, 2)
        assert band.contains([1.5, 0.0])
        assert not band.contains([0.5, 0.0])

    def test_singleton_membership(self):
        s = Singleton((0.0, 0.0))
        assert s.contains([0.0, 0.0])
        assert not s.contains([1e-3, 0.0])

    def test_boundary_slack(self):
        i = Interval(0.0, 1.0)
        assert i.contains([1.0 + 1e-12], tol=1e-9)
        assert not i.contains([1.0 + 1e-6], tol=1e-9)

    def test_interval_requires_ordering(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            NormBand(NormKind(2.0), 2.0, 1.0, 2)

    def test_dimension_mismatch(self):
        band = NormBand(NormKind(2.0), 0.0, 1.0, 2)
        with pytest.raises(DimensionMismatch):
            band.contains([1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            FiniteUnion((Interval(0, 1), Singleton((0.0, 0.0))))

    def test_union_membership(self):
        u = FiniteUnion((Interval(0.0, 1.0), Interval(2.0, 3.0)))
        assert u.contains([2.5])
        assert not u.contains([1.5])

    def test_union_requires_members(self):
        with pytest.raises(ValueError):
            FiniteUnion(())

    @pytest.mark.parametrize(
        "desc",
        [
            Interval(-1.0, 2.5),
            NormBand(NormKind(2.0), 0.5, math.inf, 3),
            NormBand(NormKind(math.inf), 0.0, 1.0, 2),
            Singleton((1.0, -2.0)),
            FiniteUnion((Interval(0, 1), Interval(2, 3))),
            FiniteUnion((Singleton((0.0, 0.0)), NormBand(NormKind(2.0), 1.0, 1.0, 2))),
            DiagonalBands(None, -600, 600, 1),
            DiagonalBands(NormKind(1.5), 0, 10**12, 3),
            DiagonalBands(NormKind(math.inf), 0, 2**52 - 1, 2),
        ],
    )
    def test_json_round_trip(self, desc):
        assert descriptor_from_json(json.loads(str(desc))) == desc

    def test_small_diagonal_bands_serialize_expanded(self):
        d = DiagonalBands(NormKind(2.0), 0, 1000, 2)
        doc = d.to_json()
        assert doc["variant"] == "finite_union" and len(doc["members"]) == 1001
        assert descriptor_from_json(json.loads(str(d))) == d.expand()

    def test_diagonal_bands_reject_inexact_indices(self):
        for start, m in ((-(2**52), 0), (0, 2**52), (3, 2)):
            with pytest.raises(ValueError):
                DiagonalBands(None, start, m, 1)
        with pytest.raises(ValueError):
            DiagonalBands(NormKind(2.0), -1, 2, 2)
        with pytest.raises(ValueError):
            DiagonalBands(None, 0, 2, 2)

    @pytest.mark.parametrize("start,m", [(-1, -1), (-3, -2), (-5, -1)])
    def test_diagonal_bands_reject_negative_m(self, start, m):
        # Below m = 0 the width 1 - 1/(m+1) divides by zero or exceeds 1.
        with pytest.raises(ValueError, match="m >= 0"):
            DiagonalBands(None, start, m, 1)
        doc = {"variant": "diagonal_bands", "coordinate": 0, "start": start, "m": m, "dim": 1}
        with pytest.raises(ValueError, match="m >= 0"):
            descriptor_from_json(doc)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            descriptor_from_json({"variant": "open-interval"})

    def test_rejects_translate_variant(self):
        doc = {"variant": "translate", "base": Interval(0.0, 1.0).to_json(), "offset": [5.0]}
        with pytest.raises(ValueError, match="unknown descriptor variant"):
            descriptor_from_json(doc)

    def test_sampling_stays_inside(self):
        rng = np.random.default_rng(0)
        for desc in [
            Interval(-2.0, 3.0),
            NormBand(NormKind(2.0), 0.5, 2.0, 3),
            NormBand(NormKind(1.0), 1.0, math.inf, 2),
            FiniteUnion((Singleton((0.0, 0.0)), NormBand(NormKind(2.0), 1.0, 2.0, 2))),
        ]:
            pts = desc.sample(rng, 500)
            assert len(pts) == 500
            assert np.all(desc.contains(pts, 1e-9))


def _band_probe_points(d, anchors, big, rng):
    """Values of t at and one float step around every member boundary near
    the anchors, plus large |t|; as points whose coordinate or norm is t."""
    w = d.width
    ts = [big, -big]
    for a in anchors:
        for edge in (float(a), a + w):
            for v in (edge, edge - 1e-9, edge + 1e-9):
                ts += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    ts = np.asarray(ts)
    if d.kind is None:
        return ts[:, None]
    axis = np.zeros((len(ts), d.ndim))
    axis[:, 0] = ts
    g = rng.normal(size=(len(ts), d.ndim))
    g /= norm(g, d.kind)[:, None]
    return np.concatenate([axis, g * ts[:, None]])


class TestDiagonalBands:
    """DiagonalBands must agree exactly with its expansion into a FiniteUnion,
    the reference it replaces as the diagonal witness pieces."""

    @given(
        st.sampled_from([None, NormKind(1.0), NormKind(1.5), NormKind(2.0), NormKind(math.inf)]),
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=-2002, max_value=2002),
        st.floats(min_value=0.0, max_value=1e15),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(None, 0, 0, 0.5, 0)
    @example(NormKind(2.0), 2000, 1999, 1e15, 1)
    @settings(max_examples=40, deadline=None)
    def test_matches_expanded_union(self, kind, m, anchor, big, seed):
        d = DiagonalBands(kind, -m if kind is None else 0, m, 1 if kind is None else 3)
        ref = d.expand()
        anchors = {d.start - 1, d.start, d.start + 1, m - 1, m, m + 1, anchor}
        pts = _band_probe_points(d, sorted(anchors), big, np.random.default_rng(seed))
        for tol in (1e-9, 0.0):
            assert np.array_equal(d.contains(pts, tol), ref.contains(pts, tol))
        assert np.array_equal(
            d.sample(np.random.default_rng(seed), 257), ref.sample(np.random.default_rng(seed), 257)
        )

    @pytest.mark.parametrize("kind,ndim", [(None, 1), (NormKind(2.0), 3)])
    def test_empty_draw(self, kind, ndim):
        d = DiagonalBands(kind, 0, 4, ndim)
        for s in (d, d.expand()):
            out = s.sample(np.random.default_rng(0), 0)
            assert out.shape == (0, ndim)

    @pytest.mark.parametrize("tol", [0.25, 0.9999999, 669.2143759336518])
    def test_matches_expanded_union_at_large_tolerance(self, tol):
        rng = np.random.default_rng(3)
        for d in (DiagonalBands(None, -800, 800, 1), DiagonalBands(NormKind(1.5), 0, 40, 2)):
            ref = d.expand()
            pts = _band_probe_points(d, range(d.start - 2, d.m + 3, 7), 2e3, rng)
            pts = np.concatenate([pts, pts - tol, pts + tol])
            assert np.array_equal(d.contains(pts, tol), ref.contains(pts, tol))


class TestPieceFamily:
    def test_piece_index_validation(self):
        fam = constant_family(Interval(0, 1))
        with pytest.raises(ValueError):
            piece(fam, -1)
        assert piece(fam, 3) == Interval(0, 1)

    def test_increasing_on_samples(self):
        fam = PieceFamily(
            lambda n: Interval(-float(n), float(n) + 1.0),
            lambda pts, idx, tol: (pts[:, 0] >= -idx - tol) & (pts[:, 0] <= (idx + 1.0) + tol),
            lambda pts, tol: np.ceil(np.maximum(np.abs(pts[:, 0] - 0.5) - 0.5 - tol, 0.0)).astype(np.int64),
        )
        rng = np.random.default_rng(1)
        for n in range(5):
            pts = piece(fam, n).sample(rng, 200)
            assert np.all(piece(fam, n + 1).contains(pts, 1e-9))
            assert np.all(fam.membership(pts, fam.index(pts, 1e-9), 1e-9))

    def test_constant_family_index(self):
        fam = constant_family(Interval(0.0, 1.0))
        pts = np.array([[-1e-9], [0.5], [1.0 + 2e-9], [3.0]])
        idx = fam.index(pts, 1e-9)
        assert idx.dtype == np.int64 and idx.tolist() == [0, 0, -1, -1]

    def test_union_index(self):
        """a's index first, b's only on the rows a leaves at -1, and -1
        where neither family has one."""
        a = constant_family(Interval(0.0, 1.0))
        wide = Interval(0.5, 3.0)
        seen = []

        def b_index(pts, tol):
            seen.append(pts.copy())
            return np.where(wide._contains(pts, tol), 7, -1).astype(np.int64)

        b = PieceFamily(lambda n: wide, lambda pts, idx, tol: wide._contains(pts, tol), b_index)
        fam = union_family(a, b)
        pts = np.array([[0.75], [2.0], [5.0], [0.0], [-4.0], [3.0]])
        idx = fam.index(pts, 1e-9)
        assert idx.tolist() == [0, 7, -1, 0, -1, 7]
        assert len(seen) == 1 and seen[0].tolist() == [[2.0], [5.0], [-4.0], [3.0]]
        hit = idx >= 0
        assert np.all(fam.membership(pts[hit], idx[hit], 1e-9))
        # Where a indexes every row, b is not called at all.
        seen.clear()
        assert fam.index(np.array([[0.1], [0.9]]), 0.0).tolist() == [0, 0]
        assert seen == []



P15 = NormKind(1.5)
P2 = NormKind(2.0)


class TestSubsetOf:
    """subset_of is True only where the bounds show containment at tolerance
    0; False means not shown."""

    def test_interval(self):
        assert Interval(0.0, 1.0).subset_of(Interval(-1.0, 2.0))
        assert Interval(0.0, 1.0).subset_of(Interval(0.0, 1.0))
        assert not Interval(0.0, 1.0).subset_of(Interval(np.nextafter(0.0, 1.0), 1.0))
        assert not Interval(0.0, 1.0).subset_of(Interval(0.0, np.nextafter(1.0, 0.0)))
        assert not Interval(-2.0, 3.0).subset_of(Interval(-1.0, 2.0))

    def test_degenerate_interval(self):
        point = Interval(0.5, 0.5)
        assert point.subset_of(Interval(0.0, 1.0))
        assert point.subset_of(Interval(0.5, 0.5))
        assert not Interval(1.5, 1.5).subset_of(Interval(0.0, 1.0))
        assert not Interval(0.0, 1.0).subset_of(point)

    def test_norm_band(self):
        assert NormBand(P2, 0.5, 2.0, 3).subset_of(NormBand(P2, 0.25, 2.0, 3))
        assert not NormBand(P2, 0.25, 2.0, 3).subset_of(NormBand(P2, 0.5, 2.0, 3))
        assert not NormBand(P2, 0.5, 3.0, 3).subset_of(NormBand(P2, 0.5, 2.0, 3))
        assert not NormBand(P2, 0.5, 2.0, 3).subset_of(NormBand(P15, 0.0, 2.0, 3))
        assert not NormBand(P2, 0.5, 2.0, 3).subset_of(NormBand(P2, 0.0, 2.0, 2))

    def test_norm_band_unbounded(self):
        far = NormBand(P2, 0.5, math.inf, 3)
        assert far.subset_of(NormBand(P2, 0.25, math.inf, 3))
        assert NormBand(P2, 0.5, 1e308, 3).subset_of(far)
        assert not far.subset_of(NormBand(P2, 0.25, 1e308, 3))

    def test_diagonal_bands(self):
        assert DiagonalBands(None, -3, 3, 1).subset_of(DiagonalBands(None, -4, 4, 1))
        assert not DiagonalBands(None, -4, 4, 1).subset_of(DiagonalBands(None, -3, 3, 1))
        assert not DiagonalBands(None, -3, 4, 1).subset_of(DiagonalBands(None, -2, 4, 1))
        assert DiagonalBands(P15, 0, 3, 3).subset_of(DiagonalBands(P15, 0, 4, 3))
        assert not DiagonalBands(P15, 1, 3, 3).subset_of(DiagonalBands(P15, 0, 2, 3))
        assert not DiagonalBands(P15, 0, 3, 3).subset_of(DiagonalBands(P2, 0, 4, 3))
        assert not DiagonalBands(P2, 0, 3, 2).subset_of(DiagonalBands(P2, 0, 4, 3))
        assert not DiagonalBands(P2, 0, 3, 1).subset_of(DiagonalBands(None, 0, 4, 1))

    def test_diagonal_bands_where_the_width_stalls(self):
        # Near 2**52 the width 1 - 1/(m+1) rounds to one float over long runs
        # of m: only the member ranges then tell the pieces apart.
        lo, hi = 2**52 - 20, 2**52 - 19
        a, b = DiagonalBands(P2, 0, lo, 3), DiagonalBands(P2, 0, hi, 3)
        assert a.width == b.width
        assert a.subset_of(b)
        assert not b.subset_of(a)
        wide = DiagonalBands(None, -(2**52) + 1, 2**52 - 1, 1)
        assert DiagonalBands(None, -lo, lo, 1).subset_of(wide)
        assert not wide.subset_of(DiagonalBands(None, -lo, lo, 1))

    def test_singleton_on_a_band_boundary(self):
        point = (0.5, 0.5, 0.0)
        r = float(norm(np.array(point), P15))
        assert Singleton(point).subset_of(NormBand(P15, r, 2.0, 3))
        assert Singleton(point).subset_of(NormBand(P15, 0.0, r, 3))
        assert not Singleton(point).subset_of(NormBand(P15, np.nextafter(r, 2.0), 2.0, 3))
        assert not Singleton(point).subset_of(NormBand(P15, 0.0, np.nextafter(r, 0.0), 3))

    def test_singleton(self):
        assert Singleton((1.0, 2.0)).subset_of(Singleton((1.0, 2.0)))
        assert not Singleton((1.0, 2.0)).subset_of(Singleton((1.0, 2.000001)))
        assert not Singleton((1.0,)).subset_of(Singleton((1.0, 0.0)))
        assert Singleton((0.25,)).subset_of(DiagonalBands(None, 0, 3, 1))
        assert not Singleton((0.9,)).subset_of(DiagonalBands(None, 0, 3, 1))

    # Signed zeros, an exact norm edge under p:1.5 and points on the unit sphere.
    SINGLETON_POINTS = [
        (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (0.5, 0.5, 0.0), (0.5, -0.5, -0.0),
        (1.0, 0.0, 0.0), (-1.0, -0.0, 0.0), (0.0, 0.0, 2.0),
    ]

    @staticmethod
    def singleton_targets():
        edge = float(norm(np.array([0.5, 0.5, 0.0]), P15))
        bands = [NormBand(P15, edge, 2.0, 3), NormBand(P15, 0.0, edge, 3),
                 NormBand(P15, np.nextafter(edge, 2.0), 2.0, 3),
                 NormBand(P15, 0.0, np.nextafter(edge, 0.0), 3)]
        bands += [NormBand(k, lo, hi, 3) for k in (NormKind(1.0), P2, NormKind(math.inf))
                  for lo, hi in ((0.0, 0.0), (1.0, 1.0), (0.5, math.inf), (0.0, 1.0))]
        points = [Singleton(p) for p in TestSubsetOf.SINGLETON_POINTS]
        return bands + points + [
            FiniteUnion((points[2], bands[2])), FiniteUnion((bands[0], points[0])),
            FiniteUnion((NormBand(P2, 1.5, 3.0, 3), points[4])),
            DiagonalBands(P2, 0, 3, 3), DiagonalBands(P2, 1, 3, 3),
        ]

    def test_singleton_decisions_are_contains_at_tolerance_zero(self):
        for p, other in itertools.product(self.SINGLETON_POINTS, self.singleton_targets()):
            want = bool(other._contains(np.array([p]), 0.0)[0])
            assert Singleton(p).subset_of(other) == want, (p, other)
        for t, other in itertools.product((0.0, -0.0, 0.5, 1.0, -1.0), (
            Interval(0.0, 1.0), Interval(-1.0, -0.0), Interval(0.5, 0.5), Singleton((-0.0,)),
            DiagonalBands(None, -1, 1, 1), FiniteUnion((Interval(2.0, 3.0), Singleton((1.0,)))),
        )):
            assert Singleton((t,)).subset_of(other) == bool(other._contains(np.array([[t]]), 0.0)[0])

    def test_union_on_the_left_needs_every_member(self):
        u = FiniteUnion((Interval(0.0, 1.0), Interval(2.0, 3.0)))
        assert u.subset_of(Interval(0.0, 3.0))
        assert not u.subset_of(Interval(0.0, 2.5))

    def test_union_on_the_right_needs_one_member(self):
        u = FiniteUnion((Interval(0.0, 1.0), Interval(2.0, 3.0)))
        assert Interval(2.0, 2.5).subset_of(u)
        assert not Interval(0.5, 2.5).subset_of(u)
        # Touching intervals are not merged.
        assert not Interval(0.0, 2.0).subset_of(FiniteUnion((Interval(0.0, 1.0), Interval(1.0, 2.0))))
        assert u.subset_of(FiniteUnion((Interval(2.0, 3.0), Interval(-1.0, 1.0))))
        assert not FiniteUnion((Interval(0.0, 1.0),)).subset_of(FiniteUnion((Interval(0.5, 3.0),)))

    def test_other_variants_are_not_shown(self):
        assert not Interval(0.0, 1.0).subset_of(NormBand(P2, 0.0, 1.0, 1))
        assert not Interval(0.0, 1.0).subset_of(DiagonalBands(None, 0, 3, 1))
        d = DiagonalBands(None, 0, 3, 1)
        assert not d.subset_of(d.expand())
        assert not d.expand().subset_of(d)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_widened_sets_are_shown(self, data):
        d = data.draw(st.sampled_from([1, 3]))
        a = data.draw(descriptors(d))
        assert a.subset_of(data.draw(widened(a)))

    @given(st.data(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_shown_subsets_hold_the_drawn_points(self, data, seed):
        d = data.draw(st.sampled_from([1, 3]))
        a = data.draw(descriptors(d))
        b = data.draw(st.one_of(widened(a), descriptors(d)))
        if a.subset_of(b):
            pts = a.sample(np.random.default_rng(seed), 64)
            pts = pts[a.contains(pts, 0.0)]
            assert np.all(b.contains(pts, 0.0))


# Bounds on a grid of eighths, so that drawn sets often share an endpoint.
_eighths = st.integers(min_value=0, max_value=40).map(lambda i: i / 8)
_norm_kinds = st.sampled_from([NormKind(1.0), P15, P2, NormKind(math.inf)])


@st.composite
def descriptors(draw, d, depth=2):
    """A descriptor of dimension d from the whole grammar."""
    variants = ["band", "diagonal", "singleton"] + ["interval"] * (d == 1) + ["union"] * (depth > 0)
    variant = draw(st.sampled_from(variants))
    if variant == "interval":
        lo = draw(_eighths) - 2.5
        return Interval(lo, lo + draw(_eighths))
    if variant == "band":
        lo = draw(_eighths)
        hi = math.inf if draw(st.booleans()) else lo + draw(_eighths)
        return NormBand(draw(_norm_kinds), lo, hi, d)
    if variant == "diagonal":
        kind = draw(st.none() | _norm_kinds) if d == 1 else draw(_norm_kinds)
        start = draw(st.integers(min_value=0 if kind else -6, max_value=6))
        m = max(start, 0) + draw(st.integers(min_value=0, max_value=6))  # piece indices m >= 0
        return DiagonalBands(kind, start, m, d)
    if variant == "singleton":
        coords = st.integers(min_value=-24, max_value=24).map(lambda i: i / 8)
        return Singleton(tuple(draw(st.lists(coords, min_size=d, max_size=d))))
    return FiniteUnion(tuple(draw(st.lists(descriptors(d, depth - 1), min_size=1, max_size=3))))


@st.composite
def widened(draw, a):
    """A descriptor that holds ``a`` by the rules subset_of states."""
    more = draw(_eighths)
    if isinstance(a, Interval):
        return Interval(a.lo - draw(_eighths), a.hi + more)
    if isinstance(a, NormBand):
        hi = math.inf if draw(st.booleans()) else a.hi + more
        return NormBand(a.kind, max(a.lo - draw(_eighths), 0.0), hi, a.ndim)
    if isinstance(a, DiagonalBands):
        start = a.start - draw(st.integers(min_value=0, max_value=a.start if a.kind else 6))
        return DiagonalBands(a.kind, start, a.m + draw(st.integers(min_value=0, max_value=6)), a.ndim)
    members = [draw(widened(m)) for m in a.members] if isinstance(a, FiniteUnion) else [a]
    members += draw(st.lists(descriptors(a.dim, 0), max_size=2))
    return FiniteUnion(tuple(draw(st.permutations(members))))


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.membership_tol == 1e-9
        assert t.identity_tol == 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerance(membership_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(identity_tol=-1e-9)

    @pytest.mark.parametrize("field", ["membership_tol", "identity_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        # An infinite tolerance would make every check it bounds pass.
        with pytest.raises(ValueError, match=field):
            Tolerance(**{field: value})
