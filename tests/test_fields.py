import dataclasses
import math
import re

import numpy as np
import pytest

from _oracles import circle_grid, operator_sets, sup_abs
from pcretract import core, fields
from pcretract.core import DimensionMismatch, NormBand, NormKind, norm
from pcretract.constructions import sphere_retraction, unit_sphere
from pcretract.fields import (
    FieldDomainError,
    ScalarField,
    const_field,
    extension_operator,
    linear_combination,
    parse_field,
)
from pcretract.verification import Sampler, check_operator_properties

P2 = NormKind(2.0)


@pytest.fixture
def sphere():
    return sphere_retraction(2, P2)


@pytest.fixture
def circle(sphere):
    return sphere.codomain


class TestCatalog:
    def test_const(self, circle):
        f = const_field(2.5, 2, circle)
        assert f([0.0, 1.0]) == 2.5
        assert f.bound == 2.5 and f.lipschitz == 0.0

    def test_coord(self, circle):
        f = parse_field("coord:1", 2, circle)
        assert f([0.25, -0.5]) == -0.5

    def test_coord_out_of_range(self, circle):
        with pytest.raises(FieldDomainError):
            parse_field("coord:3", 2, circle)

    def test_trig(self, circle):
        assert parse_field("sin:0", 2, circle)([0.5, 0.0]) == math.sin(0.5)
        assert parse_field("cos:0", 2, circle)([0.5, 0.0]) == math.cos(0.5)

    def test_prod(self, circle):
        f = parse_field("prod:0,1", 2, circle)
        assert f([0.6, 0.8]) == pytest.approx(0.48)
        assert f.bound == 1.0 and f.lipschitz == 2.0

    def test_poly(self, circle):
        f = parse_field("poly:0:1,0,2", 2, circle)  # 1 + 2*x0^2
        assert f([0.5, 0.0]) == pytest.approx(1.5)
        assert f.bound == 3.0

    def test_linear_combination(self, circle):
        f = linear_combination([(2.0, parse_field("coord:0", 2, circle)), (1.0, const_field(1, 2, circle))])
        assert f([0.5, 0.0]) == pytest.approx(2.0)
        assert f.bound == 3.0 and f.lipschitz == 2.0

    @pytest.mark.parametrize(
        "expr", ["const:1", "coord:0", "sin:1", "cos:0", "prod:0,1", "poly:0:1,0,2"]
    )
    def test_parse_round(self, expr, circle):
        f = parse_field(expr, 2, circle)
        assert np.isfinite(f([0.6, 0.8]))

    @pytest.mark.parametrize("expr", ["coord", "coord:x", "mystery:1", "prod:0", ""])
    def test_parse_rejects_malformed(self, expr, circle):
        with pytest.raises(FieldDomainError):
            parse_field(expr, 2, circle)

    @pytest.mark.parametrize(
        "expr", ["const:inf", "const:-inf", "const:nan", "poly:0:1,nan", "poly:0:inf", "poly:1:2,0,-inf"]
    )
    def test_parse_rejects_non_finite_constants(self, expr, circle):
        # Such a field's bound is inf or NaN; the flag, not a later check, is at fault.
        message = f"malformed field expression '{re.escape(expr)}': constant .* is not finite"
        with pytest.raises(FieldDomainError, match=message):
            parse_field(expr, 2, circle)

    def test_parse_keeps_largest_finite_constants(self, circle):
        assert parse_field("const:1e308", 2, circle).bound == 1e308
        assert parse_field("poly:0:-1e308,1e308", 2, circle).bound == math.inf  # the sum overflows


def _unless_inf(radius, value):
    return None if math.isinf(radius) else value


class TestCatalogTable:
    """Each head at radius R = 1, 2 and inf: its label, its declared bound
    and Lipschitz constant, and its values bit for bit against the direct
    numpy expression."""

    CASES = {
        "const:-2.5": ("const:-2.5", lambda R: 2.5, lambda R: 0.0,
                       lambda pts: np.full(len(pts), -2.5)),
        "coord:1": ("coord:1", lambda R: _unless_inf(R, R), lambda R: 1.0, lambda pts: pts[:, 1]),
        "sin:2": ("sin:2", lambda R: 1.0, lambda R: 1.0, lambda pts: np.sin(pts[:, 2])),
        "cos:0": ("cos:0", lambda R: 1.0, lambda R: 1.0, lambda pts: np.cos(pts[:, 0])),
        "prod:0,2": ("prod:0,2", lambda R: _unless_inf(R, R * R), lambda R: _unless_inf(R, 2 * R),
                     lambda pts: pts[:, 0] * pts[:, 2]),
        # 1 - 2 t + 0.5 t^2 with t = x_1, by Horner from the last coefficient.
        "poly:1:1,-2,0.5": ("poly:1:1,-2,0.5", lambda R: _unless_inf(R, 1 + 2 * R + 0.5 * R * R),
                            lambda R: _unless_inf(R, 2 + R),
                            lambda pts: (0.5 * pts[:, 1] - 2.0) * pts[:, 1] + 1.0),
    }

    @pytest.mark.parametrize("radius", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("expr", list(CASES))
    def test_head(self, expr, radius):
        label, bound, lipschitz, direct = self.CASES[expr]
        domain = NormBand(P2, 0.0, radius, 3)
        f = parse_field(expr, 3, domain, radius)
        assert (f.label, f.dim, f.bound, f.lipschitz, f.witness) == (
            label, 3, bound(radius), lipschitz(radius), None
        )
        assert f.domain is domain  # so the extension operator skips its retract probe
        pts = np.random.default_rng(4).uniform(-2.0, 2.0, size=(257, 3))
        assert f.apply(pts).tobytes() == direct(pts).tobytes()

    def test_sin_bound_below_one(self, circle):
        assert parse_field("sin:0", 2, circle, 0.25).bound == 0.25

    @pytest.mark.parametrize("expr, reason", [
        # The arguments split first, then the coordinates are read, then
        # the constants, then the coordinates' range is checked.
        ("poly:x:nan", "invalid literal for int() with base 10: 'x'"),
        ("poly:5:nan", "constant nan is not finite"),
        ("prod:0,1,2", "too many values to unpack (expected 2)"),
        ("prod:x,9", "invalid literal for int() with base 10: 'x'"),
        ("coord:3", "coordinate 3 out of range for dimension 3"),
        ("prod:0,5", "coordinate 5 out of range for dimension 3"),
    ])
    def test_error_precedence(self, expr, reason):
        domain = unit_sphere(P2, 3)
        with pytest.raises(FieldDomainError) as info:
            parse_field(expr, 3, domain)
        assert str(info.value) == f"malformed field expression {expr!r}: {reason}"

    LONG_POLY = ":" + "1," * 1100 + "1"

    def test_long_poly_saturates_to_inf(self):
        # 2.0**1100 leaves the float range: the sums saturate, as a product does.
        f = parse_field("poly:0" + self.LONG_POLY, 3, unit_sphere(P2, 3), radius=2.0)
        assert f.bound == f.lipschitz == math.inf

    def test_long_poly_range_checked(self):
        expr = "poly:9" + self.LONG_POLY
        with pytest.raises(FieldDomainError) as info:
            parse_field(expr, 3, unit_sphere(P2, 3), radius=2.0)
        assert str(info.value) == f"malformed field expression {expr!r}: coordinate 9 out of range for dimension 3"

    def test_zero_coefficient_past_the_float_range_adds_nothing(self):
        f = parse_field("poly:0:1.5," + "0," * 1100 + "0", 3, unit_sphere(P2, 3), radius=2.0)
        assert (f.bound, f.lipschitz) == (1.5, 0.0)

    @pytest.mark.parametrize("radius", [1.0, 2.0, 1.7, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 40, 1000])
    def test_poly_sums_in_range_keep_their_bits(self, radius, n):
        # 2.0**999 is in range, so the direct sums raise nothing.
        coeffs = np.random.default_rng(n).uniform(-3.0, 3.0, size=n).tolist()
        f = parse_field("poly:0:" + ",".join(map(repr, coeffs)), 3, unit_sphere(P2, 3), radius)
        assert f.bound == sum(abs(c) * radius**k for k, c in enumerate(coeffs))
        assert f.lipschitz == sum(k * abs(c) * radius ** (k - 1) for k, c in enumerate(coeffs) if k)

    @pytest.mark.parametrize("expr", ["const", "coord", "mystery:1", "Coord:0", ""])
    def test_unrecognized_head(self, expr):
        with pytest.raises(FieldDomainError) as info:
            parse_field(expr, 3, unit_sphere(P2, 3))
        assert str(info.value) == f"unrecognized field expression {expr!r}"


class TestExtensionOperator:
    def test_constant_fixed_by_composition(self, sphere, circle):
        tf = extension_operator(sphere, const_field(3.0, 2, circle))
        pts = np.random.default_rng(0).normal(size=(100, 2))
        assert np.all(tf.apply(pts) == 3.0)

    def test_extension_property_on_retract(self, sphere, circle):
        f = parse_field("coord:0", 2, circle)
        tf = extension_operator(sphere, f)
        rng = np.random.default_rng(1)
        a = circle.sample(rng, 500)
        assert np.max(np.abs(tf.apply(a) - f.apply(a))) <= 1e-12

    def test_sphere_coordinate_example(self, sphere, circle):
        tf = extension_operator(sphere, parse_field("coord:0", 2, circle))
        assert tf([3.0, 4.0]) == pytest.approx(0.6, abs=0)

    def test_dimension_mismatch_rejected(self, sphere):
        f = parse_field("coord:0", 3, sphere_retraction(3, P2).codomain)
        with pytest.raises(FieldDomainError):
            extension_operator(sphere, f)

    def test_bound_carried_over(self, sphere, circle):
        f = parse_field("coord:0", 2, circle)
        tf = extension_operator(sphere, f)
        assert tf.bounded and tf.bound == f.bound
        assert tf.witness is sphere.witness

    def test_double_composition_raises(self, sphere, circle):
        # T f carries phi's witness, so it is no continuous field to extend.
        tf = extension_operator(sphere, parse_field("coord:0", 2, circle))
        with pytest.raises(FieldDomainError, match="carries its own witness"):
            extension_operator(sphere, tf)


@dataclasses.dataclass(frozen=True)
class CountingCircle(NormBand):
    """A norm band, counting its draws in ``draws``."""

    draws: list = dataclasses.field(default_factory=list, compare=False)

    def sample(self, rng, n):
        self.draws.append(n)
        return super().sample(rng, n)


class TestRetractProbe:
    def test_drawn_per_call_for_another_domain(self, sphere):
        circle = CountingCircle(P2, 1.0, 1.0, 2)
        phi = sphere.replace(codomain=circle)
        own = [parse_field(e, 2, circle, 1.0) for e in ("const:1", "coord:0", "sin:1")]
        for f in own:
            extension_operator(phi, f)
        assert circle.draws == []  # the retract's own fields draw no probe
        disk = NormBand(P2, 0.0, 2.0, 2)
        other = [parse_field(e, 2, disk, 2.0) for e in ("const:1", "coord:0", "sin:1")]
        for _ in range(5):
            for f in own + other:
                extension_operator(phi, f)
        # 128 points per call for a domain that is not the retract
        assert circle.draws == [128] * (5 * len(other))

    def test_field_domain_still_tested_per_field(self, sphere, circle):
        extension_operator(sphere, parse_field("coord:0", 2, circle))
        annulus = NormBand(P2, 2.0, 3.0, 2)
        with pytest.raises(FieldDomainError, match="does not cover"):
            extension_operator(sphere, parse_field("coord:0", 2, annulus))

    def test_domain_of_another_dimension(self, sphere):
        ball3 = NormBand(P2, 0.0, 2.0, 3)
        with pytest.raises(DimensionMismatch, match="expected dimension 3, got 2"):
            extension_operator(sphere, parse_field("coord:0", 2, ball3))

    def test_probe_not_revalidated(self, sphere):
        f = parse_field("coord:0", 2, unit_sphere(P2, 2))
        extension_operator(sphere, f)  # tests a seeded draw of the retract
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "as_points", lambda *a, **k: pytest.fail("probe re-validated"))
            for _ in range(3):
                extension_operator(sphere, f)


class TestDomainTestPerCall:
    """The field domain is tested against a draw of the retract on every
    call, except when it is the retract itself."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(domain, retract):
            calls.append((domain, retract))
            return covers(domain, retract)

        covers = fields._covers
        monkeypatch.setattr(fields, "_covers", counted)
        return calls

    def test_retract_itself_is_not_tested(self, sphere, circle, calls):
        catalog = [parse_field(e, 2, circle, 1.0) for e in ("const:1", "coord:0", "sin:1")]
        catalog.append(linear_combination([(2.0, catalog[1]), (-1.0, catalog[2])]))
        for _ in range(5):
            for f in catalog:
                extension_operator(sphere, f)
        assert calls == []

    def test_other_domain_tested_on_every_call(self, sphere, circle, calls):
        # An equal but distinct domain, and another map's retract, are tested each time.
        f = parse_field("coord:0", 2, unit_sphere(P2, 2))
        other = sphere_retraction(2, P2)
        g = parse_field("coord:0", 2, circle)
        for attempt in range(1, 4):
            extension_operator(sphere, f)
            extension_operator(other, g)
            assert len(calls) == 2 * attempt
        assert [(d is circle, r is circle) for d, r in calls[:2]] == [(False, True), (True, False)]

    def test_operator_check_on_the_retract_tests_nothing(self, sphere, circle, calls):
        catalog = [parse_field(e, 2, circle, 1.0) for e in ("coord:0", "sin:1", "poly:0:1,2")]
        reports = check_operator_properties(sphere, catalog, operator_sets(sphere, 100, 0))
        assert all(r.status == "pass" for r in reports)
        assert calls == []

    def test_missing_domain_raises_on_every_call(self, sphere, calls):
        annulus = NormBand(P2, 2.0, 3.0, 2)
        f = parse_field("coord:0", 2, annulus)
        for attempt in range(1, 4):
            with pytest.raises(FieldDomainError, match="does not cover"):
                extension_operator(sphere, f)
            assert len(calls) == attempt


class TestSupNorm:
    def test_coord_on_circle_close_to_grid_oracle(self, circle):
        # Independent oracle: sup over a dense angular grid of |cos| is 1.
        f = parse_field("coord:0", 2, circle)
        oracle = sup_abs(f, circle_grid(100_000))
        assert oracle == pytest.approx(1.0, abs=1e-9)
        est = sup_abs(f, Sampler(7, "sphere", dim=2).draw(100_000))
        assert 1.0 - 1e-3 <= est <= 1.0

    def test_monotone_in_sample_count(self, circle):
        # The sphere draws nest, so the sampled sup cannot fall as n grows.
        f = parse_field("sin:0", 2, circle)
        s = Sampler(21, "sphere", dim=2)
        vals = [sup_abs(f, s.draw(n)) for n in (10, 100, 1000, 10_000)]
        assert vals == sorted(vals)

    def test_bounded_is_having_a_bound(self, circle):
        rule = lambda pts: pts[:, 0].copy()  # noqa: E731
        assert not ScalarField("f", 2, rule, circle, bound=None).bounded
        assert not ScalarField("f", 2, rule, circle).bounded
        assert ScalarField("f", 2, rule, circle, bound=1.0).bounded

    @pytest.mark.parametrize("radius", [1.0, math.inf])
    def test_derived_fields_bounded_iff_bound(self, sphere, circle, radius):
        fields = [parse_field(e, 2, circle, radius)
                  for e in ("const:2", "coord:0", "sin:1", "cos:0", "prod:0,1", "poly:1:1,2")]
        fields.append(linear_combination([(2.0, fields[1]), (-3.0, fields[4])]))
        fields.append(linear_combination([(1.0, fields[0]), (1.0, fields[3])]))
        fields += [extension_operator(sphere, f) for f in list(fields)]
        assert all(f.bounded == (f.bound is not None) for f in fields)
        # Unbounded catalog fields exist only on an unbounded domain.
        assert any(not f.bounded for f in fields) == math.isinf(radius)
