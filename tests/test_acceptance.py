"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line,
so the suite output doubles as a short report.  Budgets are wall-clock upper
bounds on the whole criterion, not per-call timings.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import (
    ball_draw,
    circle_grid,
    domain_draw,
    lipschitz_oracle,
    operator_sets,
    retract_draw,
    sup_abs,
)
from pcretract.constructions import build_construction, sphere_retraction
from pcretract.core import NormKind, norm
from pcretract.fields import parse_field
from pcretract.verification import (
    FAIL,
    PASS,
    Sampler,
    borsuk_discontinuity_demo,
    check_cover,
    check_norm_identity_open_ball,
    check_operator_properties,
    check_piece_continuity,
    check_retraction_identity,
    corrupt_halved,
    corrupt_identity_rule,
    corrupt_shrinking_witness,
    corrupt_understated_lipschitz,
    negated_operator,
)

P1 = NormKind(1.0)
P2 = NormKind(2.0)
PMAX = NormKind(math.inf)

FIELD_EXPRS = ("const:1", "coord:0", "coord:1", "prod:0,1", "sin:0")


@contextmanager
def criterion(capsys, num, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num} ({title}): PASS")


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def identity_targets():
    yield build_construction("fractional")
    yield build_construction("glue")
    for kind in (P1, P2, PMAX):
        for dim in (2, 3, 5):
            yield sphere_retraction(dim, kind)
    for dim in (2, 3):
        yield build_construction("open-ball", dim, P2)


def test_criterion_1_retraction_identity(capsys):
    with criterion(capsys, 1, "retraction identity"), budget(5.0):
        for m in identity_targets():
            r = check_retraction_identity(m, retract_draw(m, 10_000, 1), tol=1e-12)
            assert r.status == PASS, (m.construction_id, m.dim, r.max_violation)
            assert r.max_violation <= 1e-12


def test_criterion_2_cover_and_monotonicity(capsys):
    with criterion(capsys, 2, "cover and monotonicity"), budget(5.0):
        for cid in ("fractional", "glue", "sphere", "open-ball", "extend", "const-extend"):
            m = build_construction(cid, 2, P2)
            extra = [np.zeros(m.dim)] if m.dim > 1 else ()
            r = check_cover(m, domain_draw(m, 10_000, 2, extra), max_index=10, seed=2)
            assert r.status == PASS, (cid, r.max_violation, r.witness_points)

        bare = sphere_retraction(2, P2, paper_witness=True)
        r = check_cover(bare, domain_draw(bare, 10_000, 2, [np.zeros(2)]), seed=2)
        assert r.status == FAIL
        assert r.witness_points == ((0.0, 0.0),)

        augmented = sphere_retraction(2, P2)
        r = check_cover(augmented, domain_draw(augmented, 10_000, 2, [np.zeros(2)]), seed=2)
        assert r.status == PASS


def test_criterion_3_open_ball_norm_identity(capsys):
    with criterion(capsys, 3, "open-ball norm identity"), budget(2.0):
        m = build_construction("open-ball", 2, P2)
        r = check_norm_identity_open_ball(m, ball_draw(m, 100_000, 3), tol=1e-12)
        assert r.status == PASS
        assert r.max_violation <= 1e-12


def test_criterion_4_lipschitz_oracle(capsys):
    with criterion(capsys, 4, "per-piece Lipschitz continuity"), budget(30.0):
        sphere = sphere_retraction(2, P2)
        v = lipschitz_oracle(sphere, 2, pairs=1_000_000, seed=4)
        assert 1.9 <= v <= 4.0, v

        for cid in ("fractional", "glue", "sphere", "open-ball", "extend", "const-extend"):
            m = build_construction(cid, 2, P2)
            for k in range(1, 5):
                lip = m.piece_lipschitz(k)
                if lip is None:
                    continue
                est = lipschitz_oracle(m, k, pairs=50_000, seed=4)
                assert est <= lip * (1.0 + 1e-6), (cid, k, est, lip)
                rep = check_piece_continuity(m, k, pairs=20_000, seed=4)
                assert rep.status == PASS, (cid, k, rep.max_violation)


def test_criterion_5_operator_suite(capsys):
    with criterion(capsys, 5, "extension operator suite"), budget(10.0):
        phi = sphere_retraction(2, P2)
        catalog = [parse_field(e, 2, phi.codomain, 1.0) for e in FIELD_EXPRS]
        reps = {
            r.check_name: r
            for r in check_operator_properties(phi, catalog, operator_sets(phi, 100_000, 5))
        }
        assert reps["operator-linearity"].status == PASS
        assert reps["operator-linearity"].max_violation <= 1e-12
        assert reps["operator-extension"].status == PASS
        assert reps["operator-extension"].max_violation <= 1e-12
        assert reps["operator-positivity"].status == PASS
        assert reps["operator-positivity"].max_violation == 0.0
        assert reps["operator-isometry"].status == PASS
        assert reps["operator-isometry"].max_violation <= 1e-9

        # Independent sup oracle: dense angular grid versus the seeded sampler.
        grid = circle_grid(100_000)
        draws = Sampler(5, "sphere", dim=2).draw(100_000)
        for f in catalog:
            oracle = sup_abs(f, grid)
            est = sup_abs(f, draws)
            assert est <= oracle + 1e-9
            assert oracle - est <= 1e-3, (f.label, oracle, est)


def test_criterion_6_borsuk_demo(capsys):
    with criterion(capsys, 6, "discontinuity demo"), budget(1.0):
        m = sphere_retraction(2, P2)
        rows = borsuk_discontinuity_demo(m, [1.0, 0.0], [0.0, 1.0], depth=12)
        assert len(rows) == 12
        root2 = math.sqrt(2.0)
        gaps = []
        for row in rows:
            assert row.image_u == (1.0, 0.0)
            assert row.image_v == (0.0, 1.0)
            assert abs(row.output_gap - root2) <= 1e-15
            gaps.append(row.input_gap)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 2e-12


def test_criterion_7_cli_determinism(capsys):
    with criterion(capsys, 7, "CLI determinism"):
        args = [
            sys.executable, "-m", "pcretract.cli",
            "verify", "--construction", "sphere", "--seed", "7", "--format", "json",
        ]
        first = subprocess.run(args, capture_output=True)
        second = subprocess.run(args, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["all_pass"] is True


def test_criterion_8_negative_controls(capsys):
    with criterion(capsys, 8, "negative controls"):
        sphere = sphere_retraction(2, P2)
        ball = build_construction("open-ball", 2, P2)
        catalog = [parse_field(e, 2, sphere.codomain, 1.0) for e in FIELD_EXPRS]

        halved = check_retraction_identity(corrupt_halved(sphere), retract_draw(sphere, 2_000, 8))
        assert halved.status == FAIL
        shrinking = check_cover(corrupt_shrinking_witness(sphere), domain_draw(sphere, 2_000, 8), seed=8)
        assert shrinking.status == FAIL
        assert (
            check_piece_continuity(corrupt_understated_lipschitz(sphere), 2, pairs=2_000, seed=8).status
            == FAIL
        )
        identity = check_norm_identity_open_ball(corrupt_identity_rule(ball), ball_draw(ball, 5_000, 8))
        assert identity.status == FAIL
        bad = {
            r.check_name: r
            for r in check_operator_properties(
                sphere, catalog, operator_sets(sphere, 2_000, 8), operator=negated_operator
            )
        }
        assert bad["operator-positivity"].status == FAIL
        assert bad["operator-extension"].status == FAIL
