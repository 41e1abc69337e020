"""Golden operator reports: check_operator_properties on 20,000 domain
points drawn at seed 7 and 20,000 retract points drawn at seed 8, with the
five benchmark fields, for the radial constructions in dimension 3 under
the Euclidean norm.

The values were captured before the operator check's memo was given
lifetimes and must never be re-fitted: a change here is a change of
behaviour.  Check names, statuses and sample counts compare exactly; the
floats (violations, tolerances and witness coordinates) compare with
math.isclose, so another numpy build does not flake.  The negated operator's
extension report lists ten witness points, so it pins the offender order.
"""

import math

import pytest

from _oracles import operator_sets
from pcretract.constructions import build_construction
from pcretract.core import NormKind
from pcretract.fields import parse_field
from pcretract.verification import check_operator_properties, negated_operator

SEED = 7
N = 20_000
FIELDS = ("coord:0", "sin:1", "cos:2", "const:2", "poly:0:3")

_PASSING = [
    ('operator-linearity', 'pass', 20000, 0.0, 1e-12, ()),
    ('operator-positivity', 'pass', 20000, 0.0, 0.0, ()),
    ('operator-extension', 'pass', 20000, 2.220446049250313e-16, 1e-12, ()),
    ('operator-isometry', 'pass', 40000, 0.0, 1e-09, ()),
]

# (check, status, samples, max_violation, tolerance, witness_points) per
# report, keyed by construction id, plus "+negated-operator".
GOLDEN = {
    'sphere': _PASSING,
    'extend': _PASSING,
    'const-extend': _PASSING,
    'sphere+negated-operator': [
        ('operator-linearity', 'pass', 20000, 0.0, 1e-12, ()),
        ('operator-positivity', 'fail', 20000, 6.0, 0.0, ()),
        ('operator-extension', 'fail', 20000, 6.0, 1e-12, (
            (-0.9999713744168375, -0.005688788078840991, -0.004988791145652463),
            (-0.9999594246768816, 0.006228576423575212, -0.006507982453537453),
            (0.9998489926185745, -0.006275900432714725, 0.016205092822332155),
            (-0.9997422359596221, 0.002109789052594863, -0.022605539776988703),
            (0.9997230988198077, 0.013349702682676663, -0.019378109412558492),
            (0.9996852069993997, 0.005134519795484421, 0.024558575142653468),
            (-0.9996755123671888, -0.02546644396602644, -0.0005746347744845468),
            (0.9996737757979036, 0.022542138639677654, 0.01200807925991516),
            (0.9996712993291939, -0.007153240792634991, -0.02461959470917658),
            (-0.9996708646352489, -0.02492498651932195, -0.006075149909722351),
        )),
        ('operator-isometry', 'pass', 40000, 0.0, 1e-09, ()),
    ],
}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_operator_reports_match_golden(key):
    construction, _, control = key.partition("+")
    phi = build_construction(construction, 3, NormKind(2.0))
    fields = [parse_field(e, 3, phi.codomain, 1.0) for e in FIELDS]
    kw = {"operator": negated_operator} if control else {}
    reps = check_operator_properties(phi, fields, operator_sets(phi, N, SEED), **kw)
    got = [
        (r.check_name, r.status, r.samples_used, r.max_violation, r.tolerance, r.witness_points)
        for r in reps
    ]
    want = GOLDEN[key]
    assert [g[:3] for g in got] == [w[:3] for w in want]
    for g, w in zip(got, want):
        assert _close(g[3], w[3]) and _close(g[4], w[4]), (g[:5], w[:5])
        assert len(g[5]) == len(w[5]), g[0]
        for p, q in zip(g[5], w[5]):
            assert len(p) == len(q) and all(_close(a, b) for a, b in zip(p, q)), (g[0], p, q)
