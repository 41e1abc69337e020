import dataclasses
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from _oracles import ball_draw, domain_draw, lipschitz_oracle, operator_sets, retract_draw
from pcretract import constructions, core, verification
from pcretract.core import Interval, NormBand, NormKind, Tolerance, as_points, norm, piece
from pcretract.constructions import (
    build_construction,
    open_ball_retraction,
    sphere_retraction,
)
from pcretract.fields import ScalarField, extension_operator, parse_field
from pcretract.verification import (
    CORRUPTIONS,
    FAIL,
    INCONCLUSIVE,
    PASS,
    Sampler,
    borsuk_discontinuity_demo,
    check_cover,
    check_norm_identity_open_ball,
    check_operator_properties,
    check_piece_continuity,
    check_retraction_identity,
    codomain_sampler,
    corrupt_halved,
    corrupt_identity_rule,
    corrupt_shrinking_witness,
    corrupt_understated_lipschitz,
    domain_sampler,
    negated_operator,
    run_suite,
)

P2 = NormKind(2.0)


@pytest.fixture
def sphere():
    return sphere_retraction(2, P2)


@pytest.fixture
def open_ball():
    return open_ball_retraction(2, P2)


class TestSampler:
    def test_determinism(self):
        a = Sampler(42, "ball", dim=3, hi=2.0).draw(1000)
        b = Sampler(42, "ball", dim=3, hi=2.0).draw(1000)
        assert np.array_equal(a, b)

    def test_nesting(self):
        small = Sampler(7, "ball", dim=2, hi=3.0).draw(100)
        big = Sampler(7, "ball", dim=2, hi=3.0).draw(1000)
        assert np.array_equal(big[:100], small)
        small_s = Sampler(7, "sphere", dim=4).draw(50)
        big_s = Sampler(7, "sphere", dim=4).draw(500)
        assert np.array_equal(big_s[:50], small_s)
        small_i = Sampler(7, "set", descriptor=Interval(-2.0, 3.0)).draw(30)
        big_i = Sampler(7, "set", descriptor=Interval(-2.0, 3.0)).draw(300)
        assert np.array_equal(big_i[:30], small_i)

    def test_sphere_strategy_unit_norm(self):
        pts = Sampler(1, "sphere", dim=3, kind=NormKind(1.0)).draw(500)
        assert np.max(np.abs(norm(pts, NormKind(1.0)) - 1.0)) <= 1e-12

    def test_ball_radius_range(self):
        pts = Sampler(2, "ball", dim=2, lo=1.0, hi=2.0).draw(500)
        r = norm(pts, P2)
        assert np.all((r >= 1.0 - 1e-12) & (r <= 2.0 + 1e-12))

    def test_descriptor_strategy(self):
        band = NormBand(P2, 0.5, 1.5, 2)
        pts = Sampler(3, "set", descriptor=band).draw(300)
        assert np.all(band.contains(pts, 1e-9))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            Sampler(0, "halton", dim=2).draw(10)

    @pytest.mark.parametrize("strategy", ["grid-circle", "grid-interval"])
    def test_grid_strategies_are_unknown(self, strategy):
        with pytest.raises(ValueError, match="unknown sampling strategy"):
            Sampler(0, strategy, dim=2).draw(1)


class TestIdentityCheck:
    def test_sphere_passes(self, sphere):
        r = check_retraction_identity(sphere, retract_draw(sphere, 10_000, 1), tol=1e-12)
        assert r.status == PASS and r.max_violation <= 1e-12

    def test_fractional_exact_on_retract(self):
        m = build_construction("fractional")
        r = check_retraction_identity(m, retract_draw(m, 5000, 1), tol=0.0)
        assert r.status == PASS and r.max_violation == 0.0

    def test_negative_control_halved(self, sphere):
        r = check_retraction_identity(corrupt_halved(sphere), retract_draw(sphere, 1000, 1))
        assert r.status == FAIL
        assert r.max_violation == pytest.approx(0.5, abs=1e-12)
        assert len(r.witness_points) > 0

    def test_halved_cannot_pass_under_an_infinite_tolerance(self, sphere):
        # Tolerance(identity_tol=inf) used to let run_suite pass this
        # control's retraction identity with a violation of 0.5.
        with pytest.raises(ValueError, match="identity_tol"):
            run_suite(corrupt_halved(sphere), samples=200, tolerance=Tolerance(identity_tol=math.inf))


class TestWorstPoints:
    """Witness points: the WITNESS_POINTS largest positive deviations,
    largest first, equal deviations in input order."""

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 50, 2000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tied_deviations_keep_input_order(self, n, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values, so most deviations tie, some at the cut.
        dev = rng.integers(0, 4, size=n).astype(float)
        pts = np.arange(2.0 * n).reshape(n, 2)
        got = verification._worst_points(pts, dev)
        want = sorted(np.flatnonzero(dev > 0), key=lambda i: (-dev[i], i))
        assert np.array_equal(got, pts[want[: verification.WITNESS_POINTS]].reshape(-1, 2))

    def test_all_tied(self):
        pts = np.arange(40.0).reshape(20, 2)
        got = verification._worst_points(pts, np.full(20, 0.5))
        assert np.array_equal(got, pts[: verification.WITNESS_POINTS])

    def test_report_rows_are_float_tuples(self):
        pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        offenders = verification._worst_points(pts, np.array([1.0, 0.0, 1.0]))
        r = verification._mk_report("x", 3, 1.0, 0.0, offenders)
        assert r.witness_points == ((0.1, 0.2), (0.5, 0.6))
        assert all(type(c) is float for p in r.witness_points for c in p)


class TestValidatedOnce:
    """Each check validates each set it is given once and then calls the
    rule, the predicted index and the witness directly."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []

        def counting(x, dim=None, real=core.as_points):
            calls.append(np.shape(x))
            return real(x, dim)

        for module in (core, constructions, verification):
            monkeypatch.setattr(module, "as_points", counting)
        return calls

    @pytest.mark.parametrize("cid", ["extend", "glue", "open-ball"])
    def test_identity_and_cover(self, cid, validations):
        m = build_construction(cid, 1 if cid == "glue" else 3, P2)
        retract = retract_draw(m, 500, 1)
        validations.clear()  # the factory's own sample checks
        check_retraction_identity(m, retract)
        assert validations == [(500, m.dim)]
        # The cover set holds the special points, if any, and is still one set.
        domain = domain_draw(m, 500, 0, m.special_points)
        validations.clear()
        with mock.patch.object(verification, "MONOTONICITY_SAMPLES", 100):
            check_cover(m, domain, max_index=3)
        # Monotonicity is decided from the pieces' bounds, so no batch is
        # drawn for it.
        assert validations == [domain.shape]

    @pytest.mark.parametrize("cid", ["extend", "glue", "open-ball"])
    def test_undecided_cover_draws_one_monotonicity_batch(self, cid, validations):
        m = corrupt_shrinking_witness(build_construction(cid, 1 if cid == "glue" else 3, P2))
        domain = domain_draw(m, 500, 0, m.special_points)
        validations.clear()
        with mock.patch.object(verification, "MONOTONICITY_SAMPLES", 100):
            check_cover(m, domain, max_index=3)
        assert len(validations) == 2 and validations[0] == domain.shape

    def test_norm_identity(self, open_ball, validations):
        pts = ball_draw(open_ball, 500, 7)
        validations.clear()
        check_norm_identity_open_ball(open_ball, pts)
        assert validations == [pts.shape]

    def test_operator_check_once_per_set(self, validations):
        phi = build_construction("extend", 3, P2)
        fields = [parse_field(e, 3, phi.codomain, 1.0) for e in TestOperatorEvaluationCount.FIELDS]
        sets = operator_sets(phi, 500, 2)
        validations.clear()
        check_operator_properties(phi, fields, sets)
        assert validations == [(500, 3), (500, 3)]


class TestCoverCheck:
    def test_sphere_passes_including_origin(self, sphere):
        r = check_cover(sphere, domain_draw(sphere, 5000, 2, [np.zeros(2)]), seed=2)
        assert r.status == PASS

    def test_paper_witness_fails_exactly_at_origin(self):
        m = sphere_retraction(2, P2, paper_witness=True)
        r = check_cover(m, domain_draw(m, 2000, 2, [np.zeros(2)]), seed=2)
        assert r.status == FAIL
        assert r.witness_points == ((0.0, 0.0),)

    def test_negative_control_shrinking_witness(self, sphere):
        r = check_cover(corrupt_shrinking_witness(sphere), domain_draw(sphere, 500, 2), seed=2)
        assert r.status == FAIL

    def test_offenders_grouped_by_index_in_input_order(self, open_ball):
        bad = corrupt_shrinking_witness(open_ball)
        r = check_cover(bad, domain_draw(bad, 3000, 5), seed=5, max_index=1)
        pts = domain_sampler(bad, 5).draw(3000)
        idx = bad.predicted_index(pts, 1e-9)
        want = []
        for k in np.unique(idx):
            sel = pts[idx == k]
            want.extend(sel[~piece(bad.witness, int(k)).contains(sel, 1e-9)][:10])
        assert r.max_violation > 10
        assert r.witness_points == tuple(tuple(float(c) for c in p) for p in want[:10])

    def test_open_ball_cover(self, open_ball):
        r = check_cover(open_ball, domain_draw(open_ball, 5000, 3, [np.zeros(2)]), seed=3)
        assert r.status == PASS

    @pytest.mark.parametrize("max_index", [10, 10**4])
    @pytest.mark.parametrize("cid", constructions.CONSTRUCTION_IDS)
    def test_monotonicity_decided_without_draws(self, cid, max_index, monkeypatch):
        def no_draws(*args):
            raise AssertionError("monotonicity points were drawn")

        monkeypatch.setattr(verification, "sample_pieces", no_draws)
        m = build_construction(cid, 3)
        r = check_cover(m, domain_draw(m, 200, 4, m.special_points), max_index=max_index, seed=4)
        assert r.status == PASS

    @pytest.mark.parametrize("cid", constructions.CONSTRUCTION_IDS)
    def test_undecided_family_reports_as_before(self, cid, monkeypatch):
        # The shrinking control is not decided, so it draws from stream 17
        # exactly as the sampled step always did: the same misses, counted
        # and listed in the same order.
        bad = corrupt_shrinking_witness(build_construction(cid, 3))
        r = check_cover(bad, domain_draw(bad, 300, 6), max_index=5, seed=6)
        pts = as_points(domain_sampler(bad, 6).draw(300), bad.dim)
        idx = bad.predicted_index(pts, 1e-9)
        inside = bad.witness.membership(pts, idx, 1e-9)
        rng = verification._rng(6, 17)
        misses = []
        for k in range(1, 5):
            s = piece(bad.witness, k).sample(rng, 1000)
            misses.extend(s[~piece(bad.witness, k + 1).contains(s, 1e-9)])
        assert misses
        assert r.max_violation == np.sum(~inside) + len(misses)


class TestContinuityCheck:
    def test_sphere_band_within_declared_bound(self, sphere):
        r = check_piece_continuity(sphere, 2, pairs=5000, seed=4)
        assert r.status == PASS
        assert r.max_violation <= 4.0

    def test_fractional_ratio_near_one(self):
        m = build_construction("fractional")
        r = check_piece_continuity(m, 1, pairs=5000, seed=4)
        assert r.status == PASS
        assert r.max_violation <= 1.0 + 1e-9

    def test_open_ball_inner_piece_isometric(self, open_ball):
        r = check_piece_continuity(open_ball, 1, pairs=5000, seed=4)
        assert r.status == PASS

    def test_degenerate_piece_inconclusive(self, open_ball):
        # Piece 0 is the origin alone: no usable pairs.
        r = check_piece_continuity(open_ball, 0, pairs=500, seed=4)
        assert r.status == INCONCLUSIVE

    @pytest.mark.parametrize("name", ["fractional", "open-ball"])
    def test_zero_pairs_inconclusive(self, name):
        m = build_construction(name, 3, P2)
        r = check_piece_continuity(m, 1, pairs=0)
        assert r.status == INCONCLUSIVE
        assert r.samples_used == 0

    def test_negative_control_understated(self, sphere):
        r = check_piece_continuity(corrupt_understated_lipschitz(sphere), 2, pairs=2000, seed=4)
        assert r.status == FAIL


class TestLipschitzOracle:
    def test_sphere_band_half(self, sphere):
        v = lipschitz_oracle(sphere, 2, pairs=200_000, seed=5)
        assert 1.9 <= v <= 4.0

    def test_fractional_slope_one(self):
        m = build_construction("fractional")
        v = lipschitz_oracle(m, 1, pairs=50_000, seed=5)
        assert v <= 1.0 + 1e-9

    def test_open_ball_band_declared_dominates(self, open_ball):
        band = NormBand(P2, 1.0, 1.5, 2)
        v = lipschitz_oracle(open_ball, band, pairs=50_000, seed=5)
        assert math.isfinite(v)
        assert v <= open_ball.piece_lipschitz(1)

    def test_declared_dominate_oracle_all_constructions(self):
        for cid in ("fractional", "glue", "sphere", "open-ball", "extend"):
            m = build_construction(cid, 2, P2)
            for k in range(1, 5):
                lip = m.piece_lipschitz(k)
                if lip is None:
                    continue
                v = lipschitz_oracle(m, k, pairs=20_000, seed=6)
                assert v <= lip * (1.0 + 1e-6), (cid, k, v, lip)


class TestNormIdentity:
    def test_passes(self, open_ball):
        r = check_norm_identity_open_ball(open_ball, ball_draw(open_ball, 50_000, 7), tol=1e-12)
        assert r.status == PASS

    def test_integer_norm_maps_to_origin(self, open_ball):
        x = np.array([3.0, 0.0])
        assert np.array_equal(open_ball(x), [0.0, 0.0])

    def test_negative_control_identity_rule(self, open_ball):
        bad = corrupt_identity_rule(open_ball)
        r = check_norm_identity_open_ball(bad, ball_draw(bad, 5000, 7))
        assert r.status == FAIL
        # At ||x|| = 2.5 the defect of the identity map is exactly 2.
        pts = np.array([[2.5, 0.0]])
        rn = norm(bad.apply(pts), P2)
        assert abs(rn[0] - 0.5) == pytest.approx(2.0)


class TestOperatorChecks:
    @pytest.fixture
    def catalog(self, sphere):
        return [
            parse_field(e, 2, sphere.codomain, 1.0)
            for e in ("const:1", "coord:0", "coord:1", "prod:0,1", "sin:0")
        ]

    def test_all_pass(self, sphere, catalog):
        reps = check_operator_properties(sphere, catalog, operator_sets(sphere, 20_000, 8))
        names = [r.check_name for r in reps]
        assert names == [
            "operator-linearity",
            "operator-positivity",
            "operator-extension",
            "operator-isometry",
        ]
        assert all(r.status == PASS for r in reps)
        assert reps[0].max_violation <= 1e-12
        assert reps[1].max_violation == 0.0
        assert reps[2].max_violation <= 1e-12
        assert reps[3].max_violation <= 1e-9

    def test_negative_control_negated_operator(self, sphere, catalog):
        reps = check_operator_properties(
            sphere, catalog, operator_sets(sphere, 2000, 8), operator=negated_operator
        )
        by_name = {r.check_name: r for r in reps}
        assert by_name["operator-positivity"].status == FAIL
        assert by_name["operator-extension"].status == FAIL

    def test_negative_control_halved_phi(self, sphere, catalog):
        reps = check_operator_properties(corrupt_halved(sphere), catalog, operator_sets(sphere, 2000, 8))
        by_name = {r.check_name: r for r in reps}
        assert by_name["operator-extension"].status == FAIL

    def test_negative_control_doubled_off_retract(self):
        # T f = f∘phi on the sphere and 2 f∘phi off it: linear, positive and
        # an extension, but sup |Tf| doubles.  poly:0:3 is the constant 3.
        def doubled(p, f):
            tf = extension_operator(p, f)
            off = lambda pts: np.abs(norm(pts, P2) - 1.0) > 1e-9
            return dataclasses.replace(tf, rule=lambda pts, r=tf.rule: np.where(off(pts), 2.0, 1.0) * r(pts))
        phi = build_construction("sphere", 3, P2)
        fields = [parse_field(e, 3, phi.codomain, 1.0) for e in TestOperatorEvaluationCount.FIELDS]
        reps = check_operator_properties(phi, fields, operator_sets(phi, 2000, 3), operator=doubled)
        assert [r.status for r in reps] == [PASS, PASS, PASS, FAIL]
        assert reps[3].check_name == "operator-isometry" and reps[3].max_violation == 3.0

    @pytest.mark.parametrize("construction", ["fractional", "glue"])
    def test_line_constructions(self, construction):
        # Dimension 1, retract Interval(0, 1): every head reads coordinate 0.
        m = build_construction(construction)
        exprs = ("coord:0", "sin:0", "cos:0", "const:2", "poly:0:1,2", "prod:0,0")
        fields = [parse_field(e, 1, m.codomain, 1.0) for e in exprs]
        reps = [r for r in run_suite(m, seed=7, samples=2_000, fields=fields)
                if r.check_name.startswith("operator-")]
        assert [(r.check_name, r.status, r.samples_used) for r in reps] == [
            ("operator-linearity", PASS, 2_000),
            ("operator-positivity", PASS, 2_000),
            ("operator-extension", PASS, 2_000),
            ("operator-isometry", PASS, 4_000),
        ]


class TestOperatorEvaluationCount:
    FIELDS = ("coord:0", "sin:1", "cos:2", "const:2", "poly:0:3")

    @pytest.fixture
    def phi(self):
        return build_construction("extend", 3, P2)

    def fields(self, phi):
        return [parse_field(e, 3, phi.codomain, 1.0) for e in self.FIELDS]

    def test_phi_evaluated_once_per_point_set(self, phi):
        calls = []
        counted = phi.replace(rule=lambda pts, r=phi.rule: calls.append(len(pts)) or r(pts))
        built = []
        def operator(p, f):
            built.append(f.label)
            return extension_operator(p, f)
        reps = check_operator_properties(counted, self.fields(phi), operator_sets(phi, 3000, 4),
                                         operator=operator)
        # The domain and the retract draws; the isometry reads both.
        assert calls == [3000] * 2
        # One extension per field, per linear combination, per shifted field.
        assert len(built) == 15
        plain = check_operator_properties(phi, self.fields(phi), operator_sets(phi, 3000, 4))
        assert [r.to_json_dict() for r in reps] == [r.to_json_dict() for r in plain]
        assert all(r.status == PASS for r in reps)

    def test_each_field_evaluated_once_per_input_array(self, phi):
        seen = {}

        def counted(f):
            def rule(pts, r=f.rule):
                seen.setdefault(f.label, []).append(pts)
                return r(pts)
            return dataclasses.replace(f, rule=rule)

        fields = self.fields(phi)
        reps = check_operator_properties(phi, [counted(f) for f in fields], operator_sets(phi, 3000, 4))
        plain = check_operator_properties(phi, fields, operator_sets(phi, 3000, 4))
        assert [r.to_json_dict() for r in reps] == [r.to_json_dict() for r in plain]
        x = domain_sampler(phi, 4).draw(3000)
        a = codomain_sampler(phi.codomain, 5).draw(3000)
        expected = [phi.rule(x), a, phi.rule(a)]
        for f in fields:
            arrays = seen[f.label]
            assert len({id(a) for a in arrays}) == len(arrays), f.label
            # phi's image of the domain draws, the retract draws and phi's
            # image of the retract draws, in that order.
            assert len(arrays) == 3, f.label
            assert all(np.array_equal(got, want) for got, want in zip(arrays, expected)), f.label

    @staticmethod
    def scribbler(phi):
        """A field that writes into its input on its first call only, so a
        write that is let through would go unnoticed."""
        calls = []

        def scribble(pts):
            if not calls:
                calls.append(1)
                pts[:, 0] = 0.0
            return pts[:, 0].copy()

        return ScalarField("scribble", 3, scribble, phi.codomain, bound=1.0)

    def test_field_writing_into_input_raises(self, phi):
        before = check_operator_properties(phi, self.fields(phi), operator_sets(phi, 500, 2))
        # First written: phi's image of the domain draws.
        with pytest.raises(ValueError, match="read-only"):
            check_operator_properties(phi, [self.scribbler(phi)] + self.fields(phi),
                                      operator_sets(phi, 500, 2))
        # With an operator that does not compose, the domain draws themselves.
        with pytest.raises(ValueError, match="read-only"):
            check_operator_properties(phi, [self.scribbler(phi)], operator_sets(phi, 500, 2),
                                      operator=lambda p, f: f)
        after = check_operator_properties(phi, self.fields(phi), operator_sets(phi, 500, 2))
        assert [r.to_json_dict() for r in after] == [r.to_json_dict() for r in before]


# The NaN tests run the operator check on the dim-3 sphere with these.
NAN_N, NAN_SEED = 300, 1


def _on_sphere(pts):
    """Whether each point lies on the unit sphere: of the point sets the
    operator check gives an extension, only the retract draws do."""
    return np.abs(norm(pts, P2) - 1.0) <= 1e-12


def _spike(phi):
    """A field that lies about its bound: inf where x_0 > 0.5."""
    return ScalarField("spike", 3, lambda pts: np.where(pts[:, 0] > 0.5, np.inf, 0.0), phi.codomain, bound=1.0)


def _spike_operator(p, f):
    """An operator whose Tf is inf at the retract draws with x_0 < -0.5 and
    0 elsewhere.  With f = _spike(p), every property but the isometry is
    defined: Tf - f is inf or -inf at the retract draws where one side is
    inf, and 0 at the others, but sup |Tf| and sup |f| are both inf."""
    return dataclasses.replace(
        extension_operator(p, f),
        rule=lambda pts: np.where(_on_sphere(pts) & (pts[:, 0] < -0.5), np.inf, 0.0),
    )


class TestOperatorNaN:
    """A NaN among the compared values raises, naming the check, instead of
    being dropped by the max that folds the violations."""

    FIELDS = TestOperatorEvaluationCount.FIELDS

    @staticmethod
    def nan_operator(where, base=extension_operator):
        """``base`` (extension_operator by default) with values NaN wherever
        ``where(field, points)`` is true."""
        def operator(p, f):
            tf = base(p, f)

            def rule(pts, r=tf.rule):
                out = r(pts)
                return np.where(where(f, pts), np.nan, out)
            return dataclasses.replace(tf, rule=rule)
        return operator

    @pytest.mark.parametrize("check,where", [
        ("operator-linearity", lambda f, pts: True),
        # The shifted fields of the positivity check are labelled 1*f+1*c.
        ("operator-positivity", lambda f, pts: f.label.startswith("1*")),
        ("operator-extension", lambda f, pts: _on_sphere(pts)),
    ])
    def test_nan_extension_raises(self, check, where):
        phi = build_construction("sphere", 3, P2)
        fields = [parse_field(e, 3, phi.codomain, 1.0) for e in self.FIELDS]
        with pytest.raises(ValueError, match=f"^{check} is undefined"):
            check_operator_properties(phi, fields, operator_sets(phi, NAN_N, NAN_SEED),
                                      operator=self.nan_operator(where))

    def test_infinite_suprema_raise_at_isometry(self):
        # A NaN value reaches an earlier property first, since the isometry
        # reads only values they read.  Two infinite suprema at different
        # retract draws reach only the isometry.
        phi = build_construction("sphere", 3, P2)
        with pytest.raises(ValueError, match="^operator-isometry is undefined"):
            check_operator_properties(phi, [_spike(phi)], operator_sets(phi, NAN_N, NAN_SEED),
                                      operator=_spike_operator)

    def test_overflowing_catalog_fields_raise(self):
        # 2 * 1e308 - 3 * -1e308 overflows to inf on both sides: inf - inf.
        phi = build_construction("sphere", 3, P2)
        fields = [parse_field(e, 3, phi.codomain, 1.0) for e in ("const:1e308", "const:-1e308")]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^operator-linearity is undefined"):
                check_operator_properties(phi, fields, operator_sets(phi, NAN_N, NAN_SEED))


def _traced_peak(call):
    """(call's result, the peak of tracemalloc's traced memory during it)."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestOperatorMemory:
    # Two point sets of 20,000 x 3 floats take 0.9 MiB, and the check peaks
    # near 3.4 MiB; a memo that kept every image, and its input, for the
    # whole call peaked near 4.6 MiB.
    PEAK_MIB = 4.0
    # run_suite on the same map peaks near 3.37 MiB with the five fields and
    # 1.78 MiB without.  A suite that kept its point sets in its own locals,
    # so that the operator check could not free the domain images after
    # positivity, peaked near 4.6 and 2.7 MiB.  One whose cover check copied
    # the held domain set to prepend the special points peaked near 2.24 MiB
    # without fields.
    SUITE_PEAK_MIB = {True: 3.6, False: 2.0}

    def test_traced_peak_is_bounded(self):
        phi = build_construction("extend", 3, P2)
        fields = [parse_field(e, 3, phi.codomain, 1.0) for e in TestOperatorEvaluationCount.FIELDS]
        # The sets are drawn inside the traced call, as the suite draws them.
        reps, peak = _traced_peak(
            lambda: check_operator_properties(phi, fields, operator_sets(phi, 20_000, 7))
        )
        assert all(r.status == PASS for r in reps)
        assert peak <= self.PEAK_MIB * 2**20, f"{peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("with_fields", [True, False])
    def test_suite_traced_peak_is_bounded(self, with_fields):
        m = build_construction("extend", 3, P2)
        fields = [parse_field(e, 3, m.codomain, 1.0) for e in TestOperatorEvaluationCount.FIELDS]
        fields = fields if with_fields else ()
        reps, peak = _traced_peak(lambda: run_suite(m, seed=7, samples=20_000, fields=fields))
        assert len(reps) == 12 + 4 * with_fields and all(r.status == PASS for r in reps)
        bound = self.SUITE_PEAK_MIB[with_fields]
        assert peak <= bound * 2**20, f"{peak / 2**20:.2f} MiB"


class TestImageLifetimes:
    """The operator check's memo: one image per read-only array, for as long
    as the array lives."""

    @staticmethod
    def counted(calls, name, rule):
        return verification._memoized(lambda pts: calls.append(name) or rule(pts))

    def test_same_array_same_image(self):
        calls = []
        double = self.counted(calls, "double", lambda pts: 2.0 * pts)
        x = verification._frozen(np.ones((4, 2)))
        dx = double(x)
        assert double(x) is dx and not dx.flags.writeable
        assert calls == ["double"]

    def test_writable_array_is_never_kept(self):
        calls = []
        double = self.counted(calls, "double", lambda pts: 2.0 * pts)
        w = np.ones((4, 2))
        assert double(w) is not double(w)
        assert calls == ["double", "double"] and double.images == {}

    def test_image_dies_with_its_input(self):
        calls = []
        double = self.counted(calls, "double", lambda pts: 2.0 * pts)
        half = self.counted(calls, "half", lambda pts: 0.5 * pts)
        x = verification._frozen(np.ones((4, 2)))
        dx = double(x)
        dead = [weakref.ref(dx), weakref.ref(half(dx))]
        del dx
        assert all(r() is not None for r in dead)
        del x
        assert all(r() is None for r in dead)
        assert double.images == {} and half.images == {}

    @pytest.mark.parametrize("rule", [lambda pts: pts, lambda pts: pts[:, 0]])
    def test_view_of_input_is_not_kept(self, rule):
        calls = []
        view = self.counted(calls, "view", rule)
        x = verification._frozen(np.ones((4, 2)))
        assert np.shares_memory(view(x), x)
        assert view.images == {}
        gone = weakref.ref(x)
        del x
        assert gone() is None

    def test_clear_forces_a_recompute(self):
        calls = []
        double = self.counted(calls, "double", lambda pts: 2.0 * pts)
        x = verification._frozen(np.ones((4, 2)))
        dx = double(x)
        double.images.clear()
        assert double(x) is not dx and calls == ["double", "double"]

    def test_repeated_checks_leave_nothing_behind(self):
        # A kept view would keep its 20,000-row input alive: 469 KiB a call.
        phi = build_construction("extend", 3, P2)
        fields = [parse_field(e, 3, phi.codomain, 1.0) for e in TestOperatorEvaluationCount.FIELDS]
        fields.append(ScalarField("view", 3, lambda pts: pts[:, 0], phi.codomain))
        check_operator_properties(phi, fields, operator_sets(phi, 20_000, 7))
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(5):
                check_operator_properties(phi, fields, operator_sets(phi, 20_000, 7))
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current - baseline <= 64 * 2**10, f"{(current - baseline) / 2**10:.1f} KiB"


class TestOperatorNaNOrder:
    """When two properties are NaN at once, the one checked first is named."""

    # On the spike field and operator, the isometry is undefined too.
    @pytest.mark.parametrize("check,where", [
        # The shifted fields of positivity.
        ("operator-positivity", lambda f, pts: f.label.startswith("1*")),
        # The retract draws, which the extension and the isometry read.
        ("operator-extension", lambda f, pts: _on_sphere(pts)),
    ])
    def test_earlier_property_is_named(self, check, where):
        phi = build_construction("sphere", 3, P2)
        with pytest.raises(ValueError, match=f"^{check} is undefined"):
            check_operator_properties(phi, [_spike(phi)], operator_sets(phi, NAN_N, NAN_SEED),
                                      operator=TestOperatorNaN.nan_operator(where, _spike_operator))


class TestBorsukDemo:
    def test_constant_output_gap(self, sphere):
        rows = borsuk_discontinuity_demo(sphere, [1.0, 0.0], [0.0, 1.0], depth=12)
        assert len(rows) == 12
        root2 = math.sqrt(2.0)
        for row in rows:
            assert row.image_u == (1.0, 0.0)
            assert row.image_v == (0.0, 1.0)
            assert abs(row.output_gap - root2) <= 1e-15
        assert rows[-1].input_gap <= 2e-12

    def test_rejects_equal_directions(self, sphere):
        with pytest.raises(ValueError):
            borsuk_discontinuity_demo(sphere, [1.0, 0.0], [1.0, 0.0])

    def test_rejects_non_unit(self, sphere):
        with pytest.raises(ValueError):
            borsuk_discontinuity_demo(sphere, [2.0, 0.0], [0.0, 1.0])

    def test_rejects_zero_depth(self, sphere):
        with pytest.raises(ValueError):
            borsuk_discontinuity_demo(sphere, [1.0, 0.0], [0.0, 1.0], depth=0)

    @pytest.mark.parametrize("u, v, got", [
        ([1.0, 0.0, 0.0], [0.0, 1.0], "3 and 2"),
        ([1.0, 0.0], [0.0, 0.0, 1.0], "2 and 3"),
        ([1.0], [-1.0], "1 and 1"),
    ])
    def test_rejects_directions_of_another_dimension(self, sphere, u, v, got):
        with pytest.raises(core.DimensionMismatch, match=f"^demo directions must have dimension 2, got {got}$"):
            borsuk_discontinuity_demo(sphere, u, v)


class TestGivenPoints:
    """The input contract of the checks that read a given point set."""

    @pytest.fixture
    def phi(self):
        return build_construction("open-ball", 3, P2)

    def fields(self, phi):
        return [parse_field(e, 3, phi.codomain, 1.0) for e in TestOperatorEvaluationCount.FIELDS]

    def checks(self, phi):
        """Each check by its name, as a function of its points (the
        operator check's two sets both the given points)."""
        return {
            "retraction-identity": lambda pts: [check_retraction_identity(phi, pts)],
            "cover-and-monotonicity": lambda pts: [check_cover(phi, pts)],
            "open-ball-norm-identity": lambda pts: [check_norm_identity_open_ball(phi, pts)],
            "operator-properties": lambda pts: check_operator_properties(phi, self.fields(phi), [pts, pts]),
        }

    @pytest.mark.parametrize("name", [
        "retraction-identity", "cover-and-monotonicity", "open-ball-norm-identity", "operator-properties",
    ])
    def test_empty_set_raises_naming_the_check(self, phi, name):
        with pytest.raises(ValueError, match=f"^{name} needs at least one point$"):
            self.checks(phi)[name](np.empty((0, 3)))

    def test_operator_check_takes_the_sets_over(self, phi):
        sets = operator_sets(phi, 300, 3)
        handed = list(sets)
        assert all(s.flags.writeable for s in handed)
        check_operator_properties(phi, self.fields(phi), sets)
        assert sets == []
        assert not any(s.flags.writeable for s in handed)

    @pytest.mark.parametrize("name", [
        "retraction-identity", "cover-and-monotonicity", "open-ball-norm-identity", "operator-properties",
    ])
    def test_plain_lists_are_accepted(self, phi, name):
        pts = retract_draw(phi, 50, 4)
        check = self.checks(phi)[name]
        as_lists = [r.to_json_dict() for r in check(pts.tolist())]
        assert as_lists == [r.to_json_dict() for r in check(pts)]


class TestSuiteSharesDraws:
    """run_suite draws its retract and domain sets once: the retraction
    identity and the cover check read them, and so does the operator check."""

    N = 2_000
    SEED = 11

    @pytest.fixture(params=["extend", "const-extend", "sphere"])
    def m(self, request):
        return build_construction(request.param, 3, P2)

    def fields(self, m):
        return [parse_field(e, 3, m.codomain, 1.0) for e in TestOperatorEvaluationCount.FIELDS]

    @staticmethod
    def spied(m, fields, seed, n):
        """The sets run_suite gives its checks: the retraction identity's,
        the cover check's and the operator check's list, copied before the
        check empties it."""
        operator_check = verification.check_operator_properties
        handed = []

        def recorded(phi, fields, sets, *rest):
            handed.append(list(sets))
            return operator_check(phi, fields, sets, *rest)

        with mock.patch.object(verification, "check_retraction_identity",
                               wraps=verification.check_retraction_identity) as identity, \
             mock.patch.object(verification, "check_cover", wraps=verification.check_cover) as cover, \
             mock.patch.object(verification, "check_operator_properties", wraps=recorded):
            run_suite(m, seed=seed, samples=n, fields=fields)
        (retract,) = [c.args[1] for c in identity.call_args_list]
        (domain,) = [c.args[1] for c in cover.call_args_list]
        (sets,) = handed
        return retract, domain, sets

    def test_two_draws_with_fields(self, m):
        with mock.patch.object(Sampler, "draw", autospec=True, side_effect=Sampler.draw) as draw:
            run_suite(m, seed=self.SEED, samples=self.N, fields=self.fields(m))
        assert draw.call_count == 2

    def test_three_draws_for_open_ball_with_fields(self):
        # The norm identity's ball is the third set.
        m = build_construction("open-ball", 3, P2)
        with mock.patch.object(Sampler, "draw", autospec=True, side_effect=Sampler.draw) as draw:
            run_suite(m, seed=self.SEED, samples=self.N, fields=self.fields(m))
        assert draw.call_count == 3

    def test_checks_get_the_shared_sets(self, m):
        retract, domain, sets = self.spied(m, self.fields(m), self.SEED, self.N)
        assert len(sets) == 2 and sets[0] is retract
        special = np.reshape(m.special_points, (-1, 3))
        assert np.array_equal(domain[: len(special)], special)
        assert len(domain) == len(special) + self.N
        assert np.shares_memory(sets[1], domain) and np.array_equal(sets[1], domain[len(special):])

    def test_reports_equal_the_checks_on_the_shared_sets(self, m):
        n, seed = self.N, self.SEED
        reps = run_suite(m, seed=seed, samples=n, fields=self.fields(m))
        assert reps[0] == check_retraction_identity(m, retract_draw(m, n, seed))
        assert reps[1] == check_cover(m, domain_draw(m, n, seed + 1, m.special_points), seed=seed + 1)
        sets = [retract_draw(m, n, seed), domain_draw(m, n, seed + 1)]
        alone = check_operator_properties(m, self.fields(m), sets)
        assert sets == []
        assert [r.to_json_dict() for r in reps[-4:]] == [r.to_json_dict() for r in alone]


class TestSuiteAndReports:
    def test_suite_deterministic_bitwise(self, sphere):
        a = run_suite(sphere, seed=7, samples=1000, pairs=500)
        b = run_suite(sphere, seed=7, samples=1000, pairs=500)
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]

    def test_report_json_schema(self, sphere):
        r = check_retraction_identity(sphere, retract_draw(sphere, 100, 9))
        doc = r.to_json_dict()
        assert set(doc) == {"check", "status", "samples", "max_violation", "tolerance", "witness_points"}
        assert doc["status"] in ("pass", "fail", "inconclusive")

    def test_witness_points_capped_at_ten(self, sphere):
        # Every retract point fails by 0.5, so the report names the most it may.
        r = check_retraction_identity(corrupt_halved(sphere), retract_draw(sphere, 5000, 9))
        assert len(r.witness_points) == verification.WITNESS_POINTS == 10

    def test_corruption_catalog_documented(self):
        assert set(CORRUPTIONS) == {
            "halved",
            "identity-rule",
            "shrinking-witness",
            "understated-lipschitz",
        }

    def test_negative_seed_is_named(self, sphere):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -2$"):
            run_suite(sphere, seed=-2, samples=50)

    def test_default_samplers(self, sphere):
        assert domain_sampler(sphere, 0).strategy == "ball"
        assert codomain_sampler(sphere.codomain, 0).strategy == "sphere"
        m = build_construction("fractional")
        assert domain_sampler(m, 0).descriptor == Interval(-5.0, 5.0)
        assert codomain_sampler(m.codomain, 0).descriptor == Interval(0.0, 1.0)
        assert domain_sampler(m, 0).strategy == codomain_sampler(m.codomain, 0).strategy == "set"
