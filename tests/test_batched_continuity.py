"""The batched continuity pass against the per-piece algorithm it replaced.

``reference_continuity`` is check_piece_continuity as it ran one piece at a
time: draw from the piece, step by a gaussian, keep the pairs whose second
point stays inside and whose distance is in [1e-14, delta], and compare the
worst ratio with the declared constant.  The check's delta is the constant
CONTINUITY_DELTA; the property test patches it to other values.  Diagonal
pieces are drawn and tested through their expanded finite unions, so the
oracle shares no batched code with the check.  run_suite and
check_piece_continuity must equal it report for report.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import _rng, domain_draw, reference_pairs
from pcretract import core, verification
from pcretract.constructions import (
    CONSTRUCTION_IDS,
    build_construction,
    fractional_part_retraction,
    sphere_retraction,
)
from pcretract.core import FiniteUnion, NormBand, NormKind, PieceFamily, Singleton, norm, piece
from pcretract.verification import (
    CORRUPTIONS,
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckReport,
    check_cover,
    check_piece_continuity,
    corrupt_understated_lipschitz,
    run_suite,
)

P2 = NormKind(2.0)


def reference_continuity(m, n, pairs=2_000, delta=1e-3, tol_factor=1.0 + 1e-9, seed=0, min_pairs=50):
    name = f"piece-continuity-{n}"
    lip = m.piece_lipschitz(n)
    if lip is None:
        return CheckReport(name, INCONCLUSIVE, 0, 0.0, 0.0)
    bound = float(lip) * tol_factor
    x, y, dist = reference_pairs(piece(m.witness, n), m.kind, _rng(seed, 19), pairs, delta, max_dist=delta)
    if len(x) < max(min_pairs, 1):
        return CheckReport(name, INCONCLUSIVE, len(x), 0.0, bound)
    ratio = norm(m.apply(x) - m.apply(y), m.kind) / dist
    dev = np.where(ratio > bound, ratio, 0.0)
    # Largest deviation first, equal deviations in input order.
    worst = x[sorted(np.flatnonzero(dev > 0), key=lambda i: (-dev[i], i))[:10]]
    return CheckReport(
        name,
        PASS if np.max(ratio) <= bound else FAIL,
        len(x),
        float(np.max(ratio)),
        bound,
        tuple(tuple(float(c) for c in p) for p in worst),
    )


def _build(construction, dim, norm_text, control):
    d = 1 if construction in ("fractional", "glue") else dim
    k = P2 if d == 1 else NormKind.parse(norm_text)
    m = build_construction(construction, d, k)
    return CORRUPTIONS[control](m) if control else m


CONTROLS = (None,) + tuple(CORRUPTIONS)


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("construction", CONSTRUCTION_IDS)
@settings(max_examples=5, deadline=None)
@given(
    dim=st.sampled_from([2, 3, 9]),
    norm_text=st.sampled_from(["p:1", "p:1.5", "p:2", "max"]),
    seed=st.integers(0, 2**31 - 100),
    pairs=st.sampled_from([0, 1, 50, 2000]),
    delta=st.sampled_from([verification.CONTINUITY_DELTA, 0.05, 0.5, 2.0]),
    max_index=st.integers(1, 12),
    batch_rows=st.sampled_from([verification.BATCH_ROWS, 1, 120, 10**6]),
)
@example(dim=3, norm_text="p:2", seed=7, pairs=2000, delta=1e-3, max_index=10,
         batch_rows=verification.BATCH_ROWS)
# sphere pieces 5 and 8 keep 49 and 36 pairs, beside pieces that pass: the
# under-minimum mask runs in a mixed batch.
@example(dim=10, norm_text="p:2", seed=7, pairs=2000, delta=1e-3, max_index=10,
         batch_rows=verification.BATCH_ROWS)
# No pairs: the kept pairs are not counted over empty piece blocks.
@example(dim=10, norm_text="p:2", seed=7, pairs=0, delta=1e-3, max_index=10,
         batch_rows=verification.BATCH_ROWS)
def test_suite_equals_per_piece_reference(
    construction, control, dim, norm_text, seed, pairs, delta, max_index, batch_rows
):
    m = _build(construction, dim, norm_text, control)
    with mock.patch.object(verification, "BATCH_ROWS", batch_rows), \
            mock.patch.object(verification, "CONTINUITY_DELTA", delta):
        reports = run_suite(m, seed=seed, samples=50, max_piece_index=max_index, pairs=pairs)
        single = check_piece_continuity(m, max_index, pairs=pairs, seed=seed)
    got = [r for r in reports if r.check_name.startswith("piece-continuity-")]
    want = [
        reference_continuity(m, k, pairs=pairs, delta=delta, seed=seed + 2 + k)
        for k in range(1, max_index + 1)
    ]
    assert got == want
    assert single == reference_continuity(m, max_index, pairs=pairs, delta=delta, seed=seed)


@pytest.mark.parametrize("construction", ["open-ball", "sphere", "fractional"])
@pytest.mark.parametrize("pairs", [1, 50, 2000])
def test_piece_zero_matches_reference(construction, pairs):
    m = _build(construction, 3, "p:2", None)
    got = check_piece_continuity(m, 0, pairs=pairs, seed=4)
    assert got == reference_continuity(m, 0, pairs=pairs, seed=4)
    if construction == "open-ball":
        assert got.status == INCONCLUSIVE  # piece 0 is the origin alone


def test_a_rule_that_returns_its_input_is_left_unwritten():
    # Every piece fails with witness points, so the pass takes its ratios and
    # offenders from the rule's output, which here is x or y itself.  No
    # in-place step may write into x, y or that output.
    m = corrupt_understated_lipschitz(fractional_part_retraction().replace(rule=lambda pts: pts))
    got = [r for r in run_suite(m, seed=7, samples=50) if r.check_name.startswith("piece-continuity-")]
    assert got == [reference_continuity(m, k, seed=9 + k) for k in range(1, 11)]
    assert all(r.status == FAIL and r.witness_points for r in got)


def _recording(m):
    calls = []

    def rule(pts, base=m.rule):
        calls.append(pts.copy())
        return base(pts)

    return m.replace(rule=rule), calls


class TestPairDistance:
    @pytest.mark.parametrize("construction, dim", [("fractional", 1), ("sphere", 3), ("open-ball", 3)])
    @pytest.mark.parametrize("delta", [verification.CONTINUITY_DELTA, 0.05])
    def test_kept_pairs_lie_within_continuity_delta(self, construction, dim, delta):
        m, calls = _recording(build_construction(construction, dim, P2))
        with mock.patch.object(verification, "CONTINUITY_DELTA", delta):
            report = check_piece_continuity(m, 3, pairs=2000, seed=5)
        x, y = calls  # the map sees the kept x, then their y
        assert report.samples_used == len(x) == len(y) >= verification.MIN_CONTINUITY_PAIRS
        dist = norm(x - y, m.kind)
        assert np.all(dist <= delta)
        assert np.max(dist) > delta / 2  # the steps are drawn at the scale delta


class TestRuleCalls:
    def test_one_piece_two_calls(self):
        m, calls = _recording(build_construction("sphere", 3, P2))
        check_piece_continuity(m, 2, pairs=2000, seed=1)
        assert len(calls) == 2

    @pytest.mark.parametrize("max_index", [1, 4, 5, 10, 40])
    def test_two_calls_per_batch(self, max_index):
        per_batch = verification.BATCH_ROWS // 2000  # pieces of 2,000 pairs
        m, calls = _recording(build_construction("sphere", 3, P2))
        run_suite(m, seed=3, samples=500, max_piece_index=max_index)
        # The retraction identity applies the map once; the rest is the pass.
        assert len(calls) - 1 == 2 * math.ceil(max_index / per_batch)

    def test_no_calls_when_every_piece_is_inconclusive(self):
        m, calls = _recording(build_construction("sphere", 3, P2))
        reports = run_suite(m, seed=3, samples=500, pairs=10)
        assert all(r.status == INCONCLUSIVE for r in reports if r.check_name.startswith("piece-"))
        assert len(calls) == 1


class TestBatches:
    def test_groups_fill_up_to_the_cap(self):
        with mock.patch.object(verification, "BATCH_ROWS", 10):
            assert verification._batches(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
            assert verification._batches(list(range(3)), 5) == [[0, 1], [2]]
            # A piece larger than a batch, or of no rows, still makes progress.
            assert verification._batches(list(range(3)), 11) == [[0], [1], [2]]
            assert verification._batches(list(range(3)), 0) == [[0, 1, 2]]
            assert verification._batches(range(1, 5), 4) == [range(1, 3), range(3, 5)]

    def test_empty(self):
        assert verification._batches([], 2000) == []


def _peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_continuity_pass_peak_does_not_grow_with_pieces(self):
        m = build_construction("sphere", 3, P2)

        def sweep(count):
            ks = range(1, count + 1)
            return lambda: verification._piece_continuity_reports(m, ks, ks, 2000)

        assert _peak(sweep(200)) <= 1.25 * _peak(sweep(20))

    def test_cover_peak_does_not_grow_with_max_index(self):
        m = build_construction("sphere", 3, P2)

        def cover(max_index):
            return lambda: check_cover(m, domain_draw(m, 1000, 2), max_index=max_index, seed=2)

        assert _peak(cover(200)) <= 1.25 * _peak(cover(20))


class TestCoverBatches:
    @staticmethod
    def _alternating():
        # Pieces {0} ∪ {1/k <= ||x|| <= 1 + k % 2}: an odd piece reaches
        # radius 2, the next one only 1, so monotonicity fails on (1, 2]
        # while the unit-ball domain stays covered.
        m = sphere_retraction(2, P2, ambient="ball")

        def piece_at(k):
            return FiniteUnion((Singleton((0.0, 0.0)), NormBand(P2, 1.0 / max(k, 1), 1.0 + k % 2, 2)))

        def membership(pts, idx, tol):
            out = np.empty(len(pts), dtype=bool)
            for k in np.unique(idx):
                out[idx == k] = piece_at(int(k)).contains(pts[idx == k], tol)
            return out

        return m.replace(witness=PieceFamily(piece_at, membership, m.witness.index))

    def test_failures_and_offenders_match_one_unbatched_pass(self):
        m = self._alternating()
        rng = _rng(3, 17)
        draws = [piece(m.witness, k).sample(rng, 5000) for k in range(1, 20)]
        misses = np.concatenate(
            [d[~piece(m.witness, k + 1).contains(d, 1e-9)] for k, d in zip(range(1, 20), draws)]
        )
        with mock.patch.object(verification, "MONOTONICITY_SAMPLES", 5000):
            r = check_cover(m, domain_draw(m, 100, 3), max_index=20, seed=3)
        assert r.status == FAIL
        assert r.max_violation == float(len(misses)) > 10
        assert r.witness_points == tuple(tuple(float(c) for c in p) for p in misses[:10])

    @pytest.mark.parametrize("batch_rows", [1, 7000, 10**6])
    def test_batch_size_does_not_change_the_report(self, batch_rows):
        m = self._alternating()
        with mock.patch.object(verification, "MONOTONICITY_SAMPLES", 3000):
            domain = domain_draw(m, 100, 4)
            want = check_cover(m, domain, max_index=12, seed=4)
            with mock.patch.object(verification, "BATCH_ROWS", batch_rows):
                assert check_cover(m, domain, max_index=12, seed=4) == want


class TestPairArguments:
    @pytest.fixture
    def m(self):
        return build_construction("sphere", 3, P2)

    CALLS = {
        "check_piece_continuity": lambda m, **kw: check_piece_continuity(m, 1, **kw),
        "run_suite": lambda m, **kw: run_suite(m, samples=50, **kw),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_negative_pairs(self, m, call):
        with pytest.raises(ValueError, match="pairs must be >= 0"):
            self.CALLS[call](m, pairs=-1)

    @pytest.mark.parametrize("max_piece_index", [0, -3])
    def test_max_piece_index_below_one(self, m, max_piece_index):
        with pytest.raises(ValueError, match=f"max_piece_index must be >= 1, got {max_piece_index}"):
            run_suite(m, samples=50, max_piece_index=max_piece_index)


class TestOneValidationPerBatch:
    @pytest.mark.parametrize("construction, dim", [("open-ball", 3), ("fractional", 1), ("sphere", 3)])
    @pytest.mark.parametrize("count", [1, 4, 5, 10])
    def test_each_batch_is_validated_once(self, construction, dim, count):
        m = build_construction(construction, dim, P2)
        per_batch = verification.BATCH_ROWS // 2000  # pieces of 2,000 pairs
        ks = range(1, count + 1)
        checked = mock.Mock(wraps=core.as_points)
        with mock.patch.object(verification, "as_points", checked), mock.patch.object(core, "as_points", checked):
            verification._piece_continuity_reports(m, ks, ks, 2000)
        assert checked.call_count == math.ceil(count / per_batch)
