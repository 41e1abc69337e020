import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcretract.core import (
    DIAGONAL_INDEX_LIMIT,
    FiniteUnion,
    Interval,
    NormBand,
    NormKind,
    SetDescriptor,
    Singleton,
    Tolerance,
    constant_family,
    norm,
    piece,
)
from pcretract.constructions import (
    CONSTRUCTION_IDS,
    Clamp1D,
    Constant,
    ConstructionError,
    PuncturedSpace,
    RadialProjection,
    build_construction,
    canonical_constant_extension,
    canonical_extend,
    canonical_glue,
    extend_retraction,
    fractional_part_retraction,
    glue_retraction,
    open_ball_retraction,
    radial_projection_map,
    sphere_retraction,
)
from pcretract.verification import (
    CORRUPTIONS,
    PASS,
    check_cover,
    codomain_sampler,
    corrupt_shrinking_witness,
    domain_sampler,
    run_suite,
)

P2 = NormKind(2.0)


def brute_force_min_index(m, x, scan=40, tol=1e-9):
    """Independent oracle: smallest witness index containing x by linear scan."""
    for n in range(scan + 1):
        if piece(m.witness, n).contains(np.asarray(x), tol):
            return n
    return -1


class TestFractional:
    def setup_method(self):
        self.m = fractional_part_retraction()

    @pytest.mark.parametrize("x,expected", [(2.25, 0.25), (0.5, 0.5), (-0.25, 0.75)])
    def test_values(self, x, expected):
        assert self.m([x])[0] == pytest.approx(expected, abs=0)

    def test_witness_piece_one(self):
        got = piece(self.m.witness, 1)
        want = FiniteUnion(
            (Interval(-1.0, -0.5), Interval(0.0, 0.5), Interval(1.0, 1.5))
        )
        assert got.expand() == want

    def test_negative_tiny_input_stays_in_codomain(self):
        # x - entier(x) rounds to 1.0 in floating point here; the rule wraps it.
        out = self.m([-1e-17])[0]
        assert 0.0 <= out < 1.0

    def test_codomain_is_half_open_interval(self):
        assert self.m.codomain == Interval(0.0, 1.0)

    def test_predicted_index_matches_brute_force(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-4, 4, size=(300, 1))
        pred = self.m.predicted_index(xs)
        for x, k in zip(xs, pred):
            assert piece(self.m.witness, int(k)).contains(x, 1e-9)
            assert brute_force_min_index(self.m, x, scan=int(k) + 2) == k

    def test_piece_lipschitz_declared_one(self):
        assert self.m.piece_lipschitz(4) == 1.0


class TestDiagonalPredictedIndex:
    """fractional and open-ball predict the smallest witness piece that holds
    a point under the tolerance they are given, below 2**52, also for points
    an ulp below an integer, where 1/(1 - frac) reaches 2**53."""

    FAMILIES = {
        "fractional": (fractional_part_retraction(), lambda t: [t]),
        "open-ball": (open_ball_retraction(3, P2), lambda t: [t, 0.0, 0.0]),
    }

    def assert_smallest(self, name, t, tol):
        m, point = self.FAMILIES[name]
        x = np.asarray(point(t))
        k = int(m.predicted_index([x], tol)[0])
        assert 0 <= k < DIAGONAL_INDEX_LIMIT
        if piece(m.witness, k).contains(x, tol):
            assert k == 0 or not piece(m.witness, k - 1).contains(x, tol)
        else:  # saturated: no piece below 2**52 holds the point
            assert k == DIAGONAL_INDEX_LIMIT - 1
        return k

    @pytest.mark.parametrize("name", ["fractional", "open-ball"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ulp_below_integer(self, name, n):
        below = np.nextafter(float(n), 0.0)
        # Within tol of n, so piece n holds it by its member n.
        assert self.assert_smallest(name, below, 1e-9) == n
        self.assert_smallest(name, below, 0.0)
        self.assert_smallest(name, float(n), 0.0)
        self.assert_smallest(name, np.nextafter(float(n), 9.0), 0.0)
        if name == "fractional":
            assert self.assert_smallest(name, -below, 1e-9) == n
            self.assert_smallest(name, -below, 0.0)

    @given(
        st.sampled_from(["fractional", "open-ball"]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=-3, max_value=3),
        st.floats(min_value=-2e-9, max_value=2e-9),
        st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_smallest_near_integers(self, name, n, ulps, offset, tol):
        t = float(n) + offset
        for _ in range(abs(ulps)):
            t = np.nextafter(t, math.copysign(9.0, ulps))
        if name == "open-ball":
            t = abs(t)
        self.assert_smallest(name, t, tol)

    def test_far_points_saturate(self):
        m, _ = self.FAMILIES["fractional"]
        k = m.predicted_index([[1e300], [-1e300], [2.0**52], [2.0**53 + 2.0], [-(2.0**53) - 2.0]], 1e-9)
        assert np.all(k == DIAGONAL_INDEX_LIMIT - 1)

    def test_cover_reports_instead_of_raising(self):
        # Each probe is the whole tested set: no domain point is drawn.
        m, _ = self.FAMILIES["fractional"]
        assert check_cover(m, [[0.9999999999999999]]).status == PASS
        ob, _ = self.FAMILIES["open-ball"]
        assert check_cover(ob, [[0.9999999999999999, 0.0, 0.0]]).status == PASS
        # At tol 0 no piece below 2**52 holds it: one miss, no exception.
        r = check_cover(m, [[0.9999999999999999]], tolerance=Tolerance(1e-300))
        assert r.max_violation == 1.0


class TestGlue:
    def setup_method(self):
        self.m = canonical_glue()

    @pytest.mark.parametrize("x,expected", [(-5.0, 0.0), (0.3, 0.3), (2.0, 1.0)])
    def test_values(self, x, expected):
        assert self.m([x])[0] == expected

    def test_rejects_g_mapping_outside_retract(self):
        a = Interval(0.0, 1.0)
        with pytest.raises(ConstructionError):
            glue_retraction(
                a,
                constant_family(a),
                constant_family(Interval(2.0, 3.0)),
                Clamp1D(5.0, 6.0),  # lands in [5, 6], far from A
            )

    def test_rejects_g_undefined_on_complement(self):
        sphere = NormBand(P2, 1.0, 1.0, 2)
        with pytest.raises(ConstructionError):
            glue_retraction(
                sphere,
                constant_family(NormBand(P2, 1.0, 1.0, 2)),
                constant_family(Singleton((0.0, 0.0))),
                RadialProjection(P2),  # undefined at the origin
            )

    def test_predicted_index_contains(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-5, 5, size=(500, 1))
        pred = self.m.predicted_index(xs)
        for x, k in zip(xs, pred):
            assert piece(self.m.witness, int(k)).contains(x, 1e-9)

    @pytest.mark.parametrize("t", [-1e-20, -5e-324, -1e300, 1e300])
    def test_predicted_index_saturates_without_warning(self, t):
        # ceil(1/(-t) - 2) used to overflow the int64 cast for -1.1e-19 < t < 0.
        # At tol 0 the complement pieces, not [0, 1], index the tiny negatives.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for tol in (1e-9, 0.0):
                idx = self.m.predicted_index([[t]], tol)
                assert 0 <= idx[0] <= 2**62
            if abs(t) < 1.0:
                assert check_cover(self.m, [[t]]).status == PASS


class TestRadialIndexSaturation:
    @pytest.mark.parametrize("r", [1e-20, 1e-150])
    @pytest.mark.parametrize("build", [
        lambda: sphere_retraction(3, P2),
        lambda: canonical_extend(3),
        lambda: radial_projection_map(3, P2),
    ])
    def test_tiny_norm_gets_a_capped_index_without_warning(self, build, r):
        m = build()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            idx = m.predicted_index([[r, 0.0, 0.0]])
            assert idx[0] == 2**62
            assert check_cover(m, [[r, 0.0, 0.0]]).status == PASS


class TestSphere:
    def test_values(self):
        m = sphere_retraction(2, P2)
        assert np.allclose(m([3.0, 4.0]), [0.6, 0.8], atol=0)
        assert np.array_equal(m([0.0, 0.0]), [1.0, 0.0])

    def test_identity_on_unit_vectors(self):
        m = sphere_retraction(3, P2)
        rng = np.random.default_rng(0)
        u = rng.normal(size=(200, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        assert np.max(norm(m.apply(u) - u, P2)) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_origin_maps_to_e1(self, dim):
        e1 = np.eye(1, dim)[0]
        with pytest.raises(TypeError):
            sphere_retraction(dim, P2, e1)  # the value at the origin is not a parameter
        zeros = np.zeros((2, dim))
        zeros[1] = -0.0
        for ambient in ("space", "ball"):
            m = sphere_retraction(dim, P2, ambient=ambient)
            assert np.array_equal(m.apply(zeros), [e1, e1]), ambient

    def test_witness_piece_two(self):
        m = sphere_retraction(2, P2)
        got = piece(m.witness, 2)
        want = FiniteUnion(
            (Singleton((0.0, 0.0)), NormBand(P2, 0.5, math.inf, 2))
        )
        assert got == want

    def test_paper_witness_misses_origin(self):
        m = sphere_retraction(2, P2, paper_witness=True)
        assert piece(m.witness, 2) == NormBand(P2, 0.5, math.inf, 2)
        for n in range(1, 6):
            assert not piece(m.witness, n).contains([0.0, 0.0], 1e-9)
        assert m.predicted_index([[0.0, 0.0]])[0] == -1

    def test_predicted_index_formula(self):
        m = sphere_retraction(2, P2)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(300, 2))
        r = norm(xs, P2)
        pred = m.predicted_index(xs)
        assert np.array_equal(pred, np.maximum(np.ceil(1.0 / r), 1).astype(np.int64))
        for x, k in zip(xs, pred):
            assert piece(m.witness, int(k)).contains(x, 1e-9)

    def test_ball_ambient(self):
        m = sphere_retraction(2, P2, ambient="ball")
        band = piece(m.witness, 2).members[1]
        assert band.hi == 1.0

    def test_max_norm_instance(self):
        m = sphere_retraction(2, NormKind(math.inf))
        out = m([2.0, 1.0])
        assert norm(out, NormKind(math.inf)) == pytest.approx(1.0, abs=1e-15)


class TestOpenBall:
    def setup_method(self):
        self.m = open_ball_retraction(2, P2)

    def test_inside_fixed(self):
        x = np.array([0.3, -0.4])
        assert np.array_equal(self.m(x), x)

    def test_unit_sphere_to_origin(self):
        assert np.array_equal(self.m([1.0, 0.0]), [0.0, 0.0])
        assert np.array_equal(self.m([0.0, 0.0]), [0.0, 0.0])

    def test_formula_example(self):
        assert np.allclose(self.m([2.5, 0.0]), [0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("label", ["p:1", "p:1.5", "p:2", "max"])
    def test_image_norm_accurate_at_large_magnitudes(self, label):
        # ||m(x)|| = r - floor(r) for r = ||x||. The factor 1 - floor(r)/r
        # would cancel here, with an error of 5.5e-5 at r near 1e12.
        kind = NormKind.parse(label)
        m = open_ball_retraction(3, kind)
        rng = np.random.default_rng(13)
        for big in (1e3, 1e6, 1e9, 1e12):
            xs = rng.normal(size=(10_000, 3))
            xs *= (rng.uniform(big / 2, big, size=10_000) / norm(xs, kind))[:, None]
            r = norm(xs, kind)
            err = np.abs(norm(m.apply(xs), kind) - (r - np.floor(r)))
            assert np.max(err) < 1e-14, big

    def test_dimension_one_builds_and_zero_raises(self):
        assert open_ball_retraction(1, P2)([0.5])[0] == 0.5
        with pytest.raises(ConstructionError):
            open_ball_retraction(0, P2)

    def test_witness_piece_one(self):
        got = piece(self.m.witness, 1)
        want = FiniteUnion((NormBand(P2, 0.0, 0.5, 2), NormBand(P2, 1.0, 1.5, 2)))
        assert got.expand() == want

    def test_piece_zero_is_origin_band(self):
        assert piece(self.m.witness, 0).expand() == FiniteUnion((NormBand(P2, 0.0, 0.0, 2),))

    def test_predicted_index_matches_brute_force(self):
        # Oracle scan over m = 0..40 confirms the closed-form index, including
        # the (2.5, 0) case whose smallest index is 2.
        assert self.m.predicted_index([[2.5, 0.0]])[0] == 2
        assert brute_force_min_index(self.m, [2.5, 0.0]) == 2
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(300, 2)) * 1.5
        pred = self.m.predicted_index(xs)
        for x, k in zip(xs, pred):
            assert piece(self.m.witness, int(k)).contains(x, 1e-9)
            assert brute_force_min_index(self.m, x, scan=int(k) + 2) == k

    def test_image_norm_below_one(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(5000, 2)) * 2.0
        rn = norm(self.m.apply(xs), P2)
        r = norm(xs, P2)
        eligible = np.abs(r - np.round(r)) > 1e-9
        assert np.all(rn[eligible] < 1.0)

    def test_surjectivity_probe(self):
        # Every target inside the ball is its own preimage.
        ball = NormBand(P2, 0.0, 1.0, 2)
        ys = ball.sample(np.random.default_rng(8), 1000)
        assert np.max(norm(self.m.apply(ys) - ys, P2)) == 0.0


class TestExtensions:
    def test_extend_matches_sphere(self):
        ext = canonical_extend(2)
        sph = sphere_retraction(2, P2)
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(10_000, 2)) * 2.0
        dev = norm(ext.apply(xs) - sph.apply(xs), P2)
        assert np.max(dev) <= 1e-12
        assert np.array_equal(ext([0.0, 0.0]), sph([0.0, 0.0]))

    def test_constant_extension_matches_sphere(self):
        ce = canonical_constant_extension(2)
        sph = sphere_retraction(2, P2)
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(5000, 2))
        assert np.max(norm(ce.apply(xs) - sph.apply(xs), P2)) <= 1e-12

    def test_constant_extension_sends_complement_to_a0(self):
        ce = canonical_constant_extension(3)
        assert np.array_equal(ce([0.0, 0.0, 0.0]), [1.0, 0.0, 0.0])
        assert np.array_equal(ce([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_constant_extension_rejects_a0_outside_retract(self):
        inner = radial_projection_map(2, P2)
        with pytest.raises(ConstructionError, match="complement piece 0 outside the retract"):
            extend_retraction(
                inner,
                Constant((2.0, 0.0)),
                PuncturedSpace(2),
                constant_family(Singleton((0.0, 0.0))),
            )

    def test_degenerate_extension_is_glue(self):
        # Extending the identity on U = A by g reproduces the glued map.
        glue = canonical_glue()
        rng = np.random.default_rng(13)
        xs = rng.uniform(-3, 3, size=(2000, 1))
        clamp = np.clip(xs, 0.0, 1.0)
        assert np.array_equal(glue.apply(xs), clamp)

    def test_extend_rejects_retract_leaving_u(self):
        inner = radial_projection_map(2, P2)
        # U that misses the retract entirely: membership is never true.
        class Nowhere:
            dim = 2

            def contains(self, x, tol=0.0):
                pts = np.atleast_2d(np.asarray(x, float))
                return np.zeros(len(pts), dtype=bool)

        with pytest.raises(ConstructionError):
            extend_retraction(
                inner,
                Constant((1.0, 0.0)),
                Nowhere(),
                constant_family(Singleton((0.0, 0.0))),
            )

    def test_retraction_identity_preserved(self):
        ext = canonical_extend(2)
        rng = np.random.default_rng(14)
        u = rng.normal(size=(500, 2))
        u /= np.linalg.norm(u, axis=1)[:, None]
        assert np.max(norm(ext.apply(u) - u, P2)) <= 1e-12

    @staticmethod
    def _batch(name, layout, rows, rng):
        """rows points of the construction's domain: all in U, all outside
        it, or in U with outside rows at random positions."""
        if name == "glue":  # U = [0, 1]
            pts = rng.uniform(0.0, 1.0, size=(rows, 1))
            pts[rng.random(rows) < 0.2] = 1.0
            off = rng.uniform(1.0, 4.0, size=(rows, 1)) * rng.choice([-1.0, 1.0], size=(rows, 1))
            off = np.where(off > 0.0, off, off + 1.0)  # (-3, 0) ∪ (1, 4)
        else:  # U = R^3 without the origin
            pts = rng.normal(size=(rows, 3)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
            off = np.zeros((rows, 3))
        if layout == "outside":
            return off
        if layout == "mixed":
            hit = rng.random(rows) < 0.3
            hit[rng.integers(rows)] = True
            pts[hit] = off[hit]
        return pts

    @given(
        st.sampled_from(["extend", "const-extend", "glue"]),
        st.sampled_from(["inside", "outside", "mixed"]),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_rows_and_owns_its_memory(self, name, layout, rows, seed):
        m = build_construction(name, 3, P2)
        pts = self._batch(name, layout, rows, np.random.default_rng(seed))
        out = m.apply(pts)
        by_row = np.stack([m.apply(p[None, :])[0] for p in pts])
        assert out.tobytes() == by_row.tobytes()
        assert not np.shares_memory(out, pts)


class TestRegistry:
    @pytest.mark.parametrize(
        "cid", ["fractional", "glue", "extend", "const-extend", "sphere", "open-ball"]
    )
    def test_build_all(self, cid):
        m = build_construction(cid, 2, P2)
        assert m.construction_id == cid

    def test_unknown_id(self):
        with pytest.raises(ConstructionError):
            build_construction("mystery")

    def test_single_point_call_and_batch_agree(self):
        m = build_construction("sphere", 3, P2)
        x = [1.0, 2.0, 2.0]
        assert np.array_equal(m(x), m.apply([x])[0])


# ---------------------------------------------------------------------------
# PieceFamily.index: the piece it names holds the point


def _index_cases():
    """Every construction at each norm and dimension it accepts, and the
    corruptions that keep the witness."""
    cases = [pytest.param(build_construction(cid), id=cid) for cid in ("fractional", "glue")]
    for cid in ("extend", "const-extend", "sphere", "open-ball"):
        for dim in (2, 3):
            for label in ("p:1", "p:1.5", "p:2", "max"):
                m = build_construction(cid, dim, NormKind.parse(label))
                cases.append(pytest.param(m, id=f"{cid}/d{dim}/{label}"))
                if cid == "sphere":
                    m = sphere_retraction(dim, NormKind.parse(label), ambient="ball")
                    cases.append(pytest.param(m, id=f"sphere-ball/d{dim}/{label}"))
    for cid in ("fractional", "glue", "extend", "const-extend", "sphere", "open-ball"):
        for control in ("halved", "identity-rule", "understated-lipschitz"):
            m = CORRUPTIONS[control](build_construction(cid, 3, P2))
            cases.append(pytest.param(m, id=f"{cid}+{control}"))
    return cases


def _index_points(m):
    """10,000 domain draws, the origin and the points where the index formulas
    switch: glue's 0 and 1 +- 1e-12, fractional's integers and their float
    neighbours."""
    pts = [domain_sampler(m, 5).draw(10_000), np.zeros((1, m.dim))]
    if m.construction_id.startswith("glue"):
        pts.append(np.array([[-1e-12], [1e-12], [1.0 - 1e-12], [1.0 + 1e-12]]))
    if m.construction_id.startswith("fractional"):
        ns = np.arange(-5.0, 6.0)
        pts.append(np.concatenate([ns, np.nextafter(ns, -9.0), np.nextafter(ns, 9.0)])[:, None])
    return np.concatenate(pts)


def _with_neighbours(t):
    return np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])


# n = 1..199 and 10^3..10^14
PROBE_NS = np.concatenate([np.arange(1.0, 200.0), 10.0 ** np.arange(3, 15)])


class TestWitnessIndex:
    """Every map reads its predicted index from its witness, and the piece
    that index names holds the point: everywhere but at the origin for the
    paper witness and the radial projection.  The shrinking-witness control
    keeps its base's index; its membership is the lie it exists to expose."""

    @pytest.mark.parametrize("m", _index_cases())
    def test_named_piece_holds_the_point(self, m):
        assert m.predicted_index_fn is m.witness.index
        pts = _index_points(m)
        idx = m.predicted_index(pts, 1e-9)
        assert idx.dtype == np.int64 and np.all(idx >= 0)
        assert np.all(m.witness.membership(pts, idx, 1e-9))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("label", ["p:1", "p:1.5", "p:2", "max"])
    def test_origin_has_no_piece_without_the_origin(self, dim, label):
        kind = NormKind.parse(label)
        for m in (sphere_retraction(dim, kind, paper_witness=True), radial_projection_map(dim, kind)):
            pts = np.concatenate([np.zeros((1, dim)), domain_sampler(m, 5).draw(10_000)])
            idx = m.predicted_index(pts, 1e-9)
            assert idx[0] == -1 and np.all(idx[1:] >= 1)
            assert np.all(m.witness.membership(pts[1:], idx[1:], 1e-9))

    @pytest.mark.parametrize("paper_witness", [False, True])
    def test_no_piece_beyond_the_ball(self, paper_witness):
        m = sphere_retraction(3, P2, ambient="ball", paper_witness=paper_witness)
        pts = np.array([[1.0 + 2e-9, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0 + 5e-10, 0.0, 0.0]])
        idx = m.predicted_index(pts, 1e-9)
        assert idx.tolist() == [-1, -1, 1]
        assert m.witness.membership(pts[2:], idx[2:], 1e-9).all()

    @pytest.mark.parametrize("cid", ["fractional", "glue", "extend", "const-extend", "sphere", "open-ball"])
    def test_shrinking_control_keeps_the_base_index(self, cid):
        base = build_construction(cid, 3, P2)
        m = corrupt_shrinking_witness(base)
        assert m.witness.index is base.witness.index
        assert m.predicted_index_fn is base.predicted_index_fn

    @pytest.mark.parametrize("cid", ["extend", "const-extend"])
    def test_origin_index_is_the_complement_piece(self, cid):
        # The radial bands miss the origin, so the complement {0}, piece 0, names it.
        for dim in (2, 3):
            assert build_construction(cid, dim, P2).predicted_index(np.zeros((1, dim)))[0] == 0
        assert build_construction("sphere", 3, P2).predicted_index(np.zeros((1, 3)))[0] == 1

    @pytest.mark.parametrize("label", ["p:1", "p:1.5", "p:2", "max"])
    @pytest.mark.parametrize("build", [
        sphere_retraction, canonical_extend, canonical_constant_extension, radial_projection_map,
    ], ids=["sphere", "extend", "const-extend", "radial"])
    def test_radial_index_holds_reciprocals_at_tol_zero(self, build, label):
        # 1/||x|| can round down onto n when ||x|| is an ulp below fl(1/n),
        # which piece n does not hold: at 0.19999999999999998, piece 6 does.
        # It can also round up past n when ||x|| is fl(1/n) itself: 1/fl(1/49)
        # is 49.00000000000001, and piece 49 is the smallest that holds it.
        m = build(2, NormKind.parse(label))
        t = _with_neighbours(1.0 / np.concatenate([np.arange(1.0, 2000.0), 10.0 ** np.arange(4, 15)]))
        pts = np.stack([t, np.zeros_like(t)], axis=1)
        idx = m.predicted_index(pts, 0.0)
        assert np.all(idx >= 1)
        assert np.all(m.witness.membership(pts, idx, 0.0))
        above = idx > 1
        assert not np.any(m.witness.membership(pts[above], idx[above] - 1, 0.0))
        assert m.predicted_index([[0.19999999999999998, 0.0], [1.0 / 49.0, 0.0]], 0.0).tolist() == [6, 49]

    def test_glue_index_holds_its_edges_at_tol_zero(self):
        # The complement pieces end at -(n + 1), -1/(n + 2), 1 + 1/(n + 2)
        # and n + 2.
        m = canonical_glue()
        ns = PROBE_NS
        pts = _with_neighbours(np.concatenate([1.0 / ns, -1.0 / ns, 1.0 + 1.0 / ns, -ns, ns + 1.0]))[:, None]
        idx = m.predicted_index(pts, 0.0)
        assert np.all(idx >= 0)
        assert np.all(m.witness.membership(pts, idx, 0.0))

    def test_glue_points_within_tol_of_the_retract_are_in_piece_zero(self):
        m = canonical_glue()
        assert m.predicted_index([[-1e-12], [1.0 + 1e-12], [0.5]], 1e-9).tolist() == [0, 0, 0]
        # Beyond tol the complement pieces index them.
        assert m.predicted_index([[-1e-12], [1.0 + 1e-12]], 1e-13).tolist() == [999999999998, 999911107319]


# ---------------------------------------------------------------------------
# PieceFamily.membership against piece(k).contains


def _diagonal_edges(k, rng, signed):
    w = 1.0 - 1.0 / (k + 1)
    ns = {0, 1, k, k + 1, int(rng.integers(0, k + 1))}
    if signed:
        ns |= {-n for n in ns}
    return [e for n in ns for e in (float(n), n + w)]


def _radial_edges(k, rng):
    return [1.0 / max(k, 1), 1.0, 0.0, 2.5]


def _glue_edges(k, rng):
    return [-(k + 1.0), -1.0 / (k + 2), 0.0, 1.0, 1.0 + 1.0 / (k + 2), k + 2.0]


# name -> (family builder, dimension, norm of the probe directions, edges, largest index)
CONTAINS_AT_FAMILIES = {
    "fractional": (lambda: fractional_part_retraction().witness, 1, P2,
                   lambda k, rng: _diagonal_edges(k, rng, True), DIAGONAL_INDEX_LIMIT - 1),
    **{
        f"open-ball-{label}": (lambda p=p: open_ball_retraction(3, NormKind(p)).witness, 3,
                               NormKind(p), lambda k, rng: _diagonal_edges(k, rng, False),
                               DIAGONAL_INDEX_LIMIT - 1)
        for label, p in (("p1", 1.0), ("p1.5", 1.5), ("p2", 2.0), ("max", math.inf))
    },
    "sphere-space": (lambda: sphere_retraction(3, NormKind(1.5)).witness, 3, NormKind(1.5),
                     _radial_edges, 2**62),
    "sphere-ball": (lambda: sphere_retraction(3, P2, ambient="ball").witness, 3, P2,
                    _radial_edges, 2**62),
    "sphere-paper": (lambda: sphere_retraction(2, NormKind(math.inf), paper_witness=True).witness,
                     2, NormKind(math.inf), _radial_edges, 2**62),
    "radial": (lambda: radial_projection_map(3, NormKind(3.0)).witness, 3, NormKind(3.0),
               _radial_edges, 2**62),
    "extend": (lambda: canonical_extend(3).witness, 3, P2, _radial_edges, 2**62),
    "const-extend": (lambda: canonical_constant_extension(3, NormKind(1.0)).witness, 3,
                     NormKind(1.0), _radial_edges, 2**62),
    "glue": (lambda: canonical_glue().witness, 1, P2, _glue_edges, 2**62),
    "shrinking-witness": (lambda: corrupt_shrinking_witness(sphere_retraction(3, P2)).witness,
                          3, P2, _radial_edges, 2**62),
    # The control's piece k is its base's piece max(8 - k, 0), so probe that piece's edges.
    "shrinking-witness-fractional": (
        lambda: corrupt_shrinking_witness(fractional_part_retraction()).witness, 1, P2,
        lambda k, rng: _diagonal_edges(max(8 - k, 0), rng, True), 2**62),
    "shrinking-witness-open-ball-p1.5": (
        lambda: corrupt_shrinking_witness(open_ball_retraction(3, NormKind(1.5))).witness, 3,
        NormKind(1.5), lambda k, rng: _diagonal_edges(max(8 - k, 0), rng, False), 2**62),
    "shrinking-witness-glue": (
        lambda: corrupt_shrinking_witness(canonical_glue()).witness, 1, P2,
        lambda k, rng: _glue_edges(max(8 - k, 0), rng), 2**62),
}


def _probe_points(edges, dim, kind, rng):
    """Each edge, the edge +- 1e-9, and one float step around all of them,
    along +-e1 and a random unit direction."""
    ts = []
    for e in edges:
        for v in (e, e - 1e-9, e + 1e-9):
            ts += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    ts = np.asarray(ts)
    if dim == 1:
        return np.concatenate([ts, -ts])[:, None]
    e1 = np.zeros(dim)
    e1[0] = 1.0
    g = rng.normal(size=dim)
    dirs = np.stack([e1, -e1, g / norm(g, kind)])
    return (dirs[:, None, :] * ts[None, :, None]).reshape(-1, dim)


class TestContainsAt:
    """Each family's closed-form membership (the shrinking-witness
    control's through its base family) must give the booleans of
    piece(idx[i]).contains point for point."""

    @pytest.mark.parametrize("name", sorted(CONTAINS_AT_FAMILIES))
    @given(
        st.lists(st.integers(min_value=0, max_value=2**62), max_size=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_piece_contains(self, name, extra, seed):
        build, dim, kind, edges, top = CONTAINS_AT_FAMILIES[name]
        fam = build()
        rng = np.random.default_rng(seed)
        ks = sorted({0, 1, top, *(k % (top + 1) for k in extra)})
        blocks = [_probe_points(edges(k, rng), dim, kind, rng) for k in ks]
        pts = np.concatenate(blocks)
        idx = np.repeat(ks, [len(b) for b in blocks])
        perm = rng.permutation(len(pts))
        pts, idx = pts[perm], idx[perm]
        for tol in (1e-9, 0.0):
            want = np.empty(len(pts), dtype=bool)
            for k in ks:
                want[idx == k] = piece(fam, k).contains(pts[idx == k], tol)
            assert np.array_equal(fam.membership(pts, idx, tol), want)

    def test_rejects_bad_indices(self):
        # Like piece(2**52), which has no exact band bounds.
        for fam in (fractional_part_retraction().witness, open_ball_retraction(2, P2).witness):
            idx = np.array([0, DIAGONAL_INDEX_LIMIT], dtype=np.int64)
            with pytest.raises(ValueError, match="2\\*\\*52"):
                fam.membership(np.zeros((2, fam.piece_at(0).dim)), idx, 1e-9)

    def test_empty_batch(self):
        for build, dim, *_ in CONTAINS_AT_FAMILIES.values():
            out = build().membership(np.empty((0, dim)), np.empty(0, dtype=np.int64), 1e-9)
            assert out.shape == (0,) and out.dtype == bool


CONTROL_TARGETS = {
    "halved": "retraction-identity",
    "shrinking-witness": "cover-and-monotonicity",
    "understated-lipschitz": "piece-continuity-",
    "identity-rule": "open-ball-norm-identity",  # checked for open-ball only
}


class TestNegativeControlsStillFail:
    @pytest.mark.parametrize(
        "cid,control",
        [
            (cid, control)
            for cid in ("fractional", "glue", "extend", "const-extend", "sphere", "open-ball")
            for control in sorted(CORRUPTIONS)
            if control != "identity-rule" or cid == "open-ball"
        ],
    )
    def test_control_fails_its_target(self, cid, control):
        target = CONTROL_TARGETS[control]
        m = CORRUPTIONS[control](build_construction(cid, 3, P2))
        reports = run_suite(m, seed=4, samples=500, pairs=500)
        assert any(r.check_name.startswith(target) and r.status == "fail" for r in reports)


# The strategy codomain_sampler picks for each map's retract.
CODOMAIN_STRATEGY = {
    "fractional": "set", "glue": "set", "extend": "sphere", "const-extend": "sphere",
    "sphere": "sphere", "open-ball": "ball", "sphere-ball": "sphere", "radial": "sphere",
}


def _codomain_cases():
    maps = {cid: build_construction(cid, 3, P2) for cid in CONSTRUCTION_IDS}
    maps["sphere-ball"] = sphere_retraction(3, P2, ambient="ball")
    maps["radial"] = radial_projection_map(3, P2)
    cases = [pytest.param(name, m, id=name) for name, m in maps.items()]
    for cid in CONSTRUCTION_IDS:
        for control in sorted(CORRUPTIONS):
            cases.append(pytest.param(cid, CORRUPTIONS[control](maps[cid]), id=f"{cid}+{control}"))
    return cases


class TestCodomainIsADescriptor:
    """A map's codomain is a closed descriptor; a retract that is not closed
    is carried as its closure, and the map's dimension is the codomain's."""

    @pytest.mark.parametrize("name,m", _codomain_cases())
    def test_codomain_dim_and_sampler(self, name, m):
        assert isinstance(m.codomain, SetDescriptor)
        assert m.dim == m.codomain.dim == (1 if name in ("fractional", "glue") else 3)
        assert codomain_sampler(m.codomain, 0).strategy == CODOMAIN_STRATEGY[name]

    @pytest.mark.parametrize("name,m", _codomain_cases())
    def test_only_open_ball_gets_its_norm_identity(self, name, m):
        names = [r.check_name for r in run_suite(m, seed=3, samples=50, max_piece_index=1, pairs=10)]
        assert ("open-ball-norm-identity" in names) == (name == "open-ball")

    def test_closures(self):
        assert fractional_part_retraction().codomain == Interval(0.0, 1.0)
        assert canonical_glue().codomain == Interval(0.0, 1.0)
        assert build_construction("open-ball", 3, P2).codomain == NormBand(P2, 0.0, 1.0, 3)
        for cid in ("extend", "const-extend", "sphere"):
            assert build_construction(cid, 3, P2).codomain == NormBand(P2, 1.0, 1.0, 3)
