"""Traced replay of a case as the public calls that ``run_suite`` makes.

The traced run (``--trace 1``) first runs each case untraced, as the
end-to-end run does, then replays it here on the same seeded inputs.  Every
call that this file makes into a pcretract module is wrapped in a span, named
after the module: core, constructions, fields, verification and cli.  The
map's rule and predicted-index function are wrapped through the public
``PiecewiseMap.replace``, so rule evaluations made inside extension fields
are attributed to ``constructions.apply`` too.  Nothing inside pcretract is
patched: the spans sit at the boundary between this file and the package.

The replay mirrors pcretract.verification by hand, so it can drift from it
when the checks change.  Its (check, status, samples) list is therefore
compared with the untraced run's.  A case whose lists differ counts as a
wrong outcome that no known defect excuses, so the traced run reports
``correct: false``, and ``trace.replay_mismatches`` counts such cases.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from pcretract import (
    NormKind,
    Sampler,
    Tolerance,
    build_construction,
    codomain_sampler,
    const_field,
    domain_sampler,
    extension_operator,
    linear_combination,
    norm,
    parse_field,
    piece,
    run_suite,
)
from pcretract.core import as_points
from probes import contains_probes, norm_probes
from workloads import OPERATOR_FIELDS, CaseBudgetExceeded, case_budget

# run_suite's defaults
MAX_PIECE_INDEX = 10
PAIRS = 2_000
DELTA = 1e-3
PIECE_SAMPLES = 1_000
TOL = Tolerance()

OVER_BUDGET = "traced replay over budget"


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    A span is [id, name, case index, parent id, start, end] with times from
    ``time.perf_counter``; spans of one case share the case index."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.case = -1
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [len(self.spans), name, self.case, self._stack[-1] if self._stack else None,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, points=None, **kwargs):
        if points is not None:
            self.counts[name + ".points"] += points
        with self.span(name):
            return fn(*args, **kwargs)


def _rng(seed, stream):
    # Same stream construction as pcretract.verification's samplers.
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def _status(violation, tol):
    return "pass" if violation <= tol else "fail"


def traced_map(t: Tracer, m):
    def rule(pts):
        return t.call("constructions.apply", m.rule, pts, points=len(pts))

    def predicted(pts, tol):
        return t.call("constructions.predicted_index", m.predicted_index_fn, pts, tol)

    return m.replace(rule=rule, predicted_index_fn=predicted)


def build_maps(t: Tracer, workload):
    if workload.mode != "suite":
        return None
    return [t.call("constructions.build", case.build) for case in workload.cases]


def _draw(t, sampler, n, dim):
    pts = as_points(t.call("verification.sampler", sampler.draw, n), dim)
    t.counts["verification.sampler.points"] += len(pts)
    return pts


def _norm(t, x, kind):
    return t.call("core.norm", norm, x, kind, points=len(x))


def _piece(t, m, k):
    t.counts["core.piece.calls"] += 1
    return t.call("core.piece", piece, m.witness, k)


def _contains(t, desc, pts, tol):
    return np.asarray(t.call("core.contains", desc.contains, pts, tol, points=len(pts)))


def _sample(t, desc, rng, n):
    return t.call("core.sample", desc.sample, rng, n)


def retraction_identity(t, m, n, seed):
    with t.span("verification.retraction_identity"):
        pts = _draw(t, codomain_sampler(m.codomain, seed), n, m.dim)
        dev = _norm(t, m.apply(pts) - pts, m.kind)
        return "retraction-identity", _status(float(np.max(dev)), TOL.identity_tol), len(pts)


def cover(t, m, n, seed, extra):
    with t.span("verification.cover"):
        tol = TOL.membership_tol
        pts = _draw(t, domain_sampler(m, seed), n, m.dim)
        if extra is not None:
            pts = np.concatenate([as_points(np.asarray(extra, float), m.dim), pts])
        idx = m.predicted_index(pts, tol)
        failures = int(np.sum(idx < 0))
        ks = [int(k) for k in np.unique(idx[idx >= 0])]
        t.counts["verification.cover.distinct_pieces"] += len(ks)
        t.counts["verification.cover.index_sum"] += sum(ks)
        t.counts["verification.cover.max_index"] = max(t.counts["verification.cover.max_index"], max(ks, default=0))
        for k in ks:
            failures += int(np.sum(~_contains(t, _piece(t, m, k), pts[idx == k], tol)))
        rng = _rng(seed, 17)
        for k in range(1, MAX_PIECE_INDEX):
            s = _sample(t, _piece(t, m, k), rng, PIECE_SAMPLES)
            if len(s):
                failures += int(np.sum(~_contains(t, _piece(t, m, k + 1), s, tol)))
        return "cover-and-monotonicity", _status(failures, 0.0), len(pts)


def piece_continuity(t, m, k, seed, tol_factor=1.0 + 1e-9, min_pairs=50):
    name = f"piece-continuity-{k}"
    with t.span("verification.piece_continuity"):
        t.counts["verification.piece_continuity.requested"] += PAIRS
        lip = m.piece_lipschitz(k)
        if lip is None:
            return name, "inconclusive", 0
        desc = _piece(t, m, k)
        rng = _rng(seed, 19)
        x = _sample(t, desc, rng, PAIRS)
        if len(x) == 0:
            return name, "inconclusive", 0
        y = x + rng.normal(size=x.shape) * (DELTA / 2.0)
        keep = _contains(t, desc, y, 0.0)
        x, y = x[keep], y[keep]
        dist = _norm(t, x - y, m.kind)
        ok = (dist >= 1e-14) & (dist <= DELTA)
        x, y, dist = x[ok], y[ok], dist[ok]
        t.counts["verification.piece_continuity.kept"] += len(x)
        if len(x) < min_pairs:
            return name, "inconclusive", len(x)
        ratio = _norm(t, m.apply(x) - m.apply(y), m.kind) / dist
        return name, _status(float(np.max(ratio)), float(lip) * tol_factor), len(x)


def norm_identity(t, m, n, seed, radius=5.0, integer_gap=1e-9):
    with t.span("verification.norm_identity"):
        pts = _draw(t, Sampler(seed, "ball", dim=m.dim, kind=m.kind, lo=0.0, hi=radius), n, m.dim)
        r = _norm(t, pts, m.kind)
        rn = _norm(t, m.apply(pts), m.kind)
        violation = float(np.max(np.abs(rn - (r - np.floor(r)))))
        strict_bad = (np.abs(r - np.round(r)) >= integer_gap) & (rn >= 1.0)
        if strict_bad.any():
            violation = max(violation, float(np.max(rn[strict_bad])))
        return "open-ball-norm-identity", _status(violation, TOL.identity_tol), len(pts)


def operator(t, phi, fields, n, seed, iso_tol=1e-9, alpha=2.0, beta=-3.0):
    def ext(f):
        return t.call("fields.extension", extension_operator, phi, f)

    def apply(f, pts):
        return t.call("fields.apply", f.apply, pts, points=len(pts))

    with t.span("verification.operator"):
        x_pts = _draw(t, domain_sampler(phi, seed), n, phi.dim)
        a_pts = _draw(t, codomain_sampler(phi.codomain, seed + 1), n, phi.dim)
        out = []

        lin_v = 0.0
        for f, g in zip(fields, list(fields[1:]) + [fields[0]]):
            comb = linear_combination([(alpha, f), (beta, g)])
            lhs = apply(ext(comb), x_pts)
            rhs = alpha * apply(ext(f), x_pts) + beta * apply(ext(g), x_pts)
            lin_v = max(lin_v, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))))
        out.append(("operator-linearity", _status(lin_v, TOL.identity_tol), len(x_pts)))

        pos_v = 0.0
        inconclusive = False
        phi_x = phi.apply(x_pts)
        for f in fields:
            if not f.bounded:
                continue
            h = linear_combination([(1.0, f), (1.0, const_field(f.bound, f.dim, f.domain))])
            if min(float(np.min(apply(h, a_pts))), float(np.min(apply(h, phi_x)))) < 0.0:
                inconclusive = True
                continue
            pos_v = max(pos_v, max(0.0, -float(np.min(apply(ext(h), x_pts)))))
        status = _status(pos_v, 0.0)
        out.append(("operator-positivity", "inconclusive" if inconclusive and status == "pass" else status,
                    len(x_pts)))

        ext_v = 0.0
        for f in fields:
            ext_v = max(ext_v, float(np.max(np.abs(apply(ext(f), a_pts) - apply(f, a_pts)))))
        out.append(("operator-extension", _status(ext_v, TOL.identity_tol), len(a_pts)))

        iso_v = 0.0
        xs = _draw(t, domain_sampler(phi, seed + 2), n, phi.dim)
        as_ = _draw(t, codomain_sampler(phi.codomain, seed + 3), n, phi.dim)
        x_set = np.concatenate([xs, as_])
        a_set = np.concatenate([phi.apply(xs), as_])
        for f in fields:
            if f.bounded:
                sup_x = float(np.max(np.abs(apply(ext(f), x_set))))
                sup_a = float(np.max(np.abs(apply(f, a_set))))
                iso_v = max(iso_v, abs(sup_x - sup_a))
        out.append(("operator-isometry", _status(iso_v, iso_tol), len(x_set)))
        return out


def replay_suite(t, m, seed, samples, fields=()):
    """The checks of run_suite(m, seed, samples, fields=fields), traced."""
    m = traced_map(t, m)
    extra = [np.zeros(m.dim)] if m.construction_id.startswith(
        ("sphere", "extend", "const-extend", "open-ball")) else None
    out = [retraction_identity(t, m, samples, seed), cover(t, m, samples, seed + 1, extra)]
    out += [piece_continuity(t, m, k, seed + 2 + k) for k in range(1, MAX_PIECE_INDEX + 1)]
    if m.construction_id.startswith("open-ball"):
        out.append(norm_identity(t, m, samples, seed + 50))
    if fields:
        out += operator(t, m, fields, samples, seed + 60)
    return out


def _parse_fields(m):
    return [parse_field(e, m.codomain.dim, m.codomain, radius=1.0) for e in OPERATOR_FIELDS.split(",")]


def _untraced_call(name, fn, *args):
    return fn(*args)


def _cli_library_calls(t, case, seed, samples):
    """What ``pcretract verify --fields ...`` computes, minus argument parsing
    and rendering: replayed with spans when ``t`` is given, else run_suite."""
    call = t.call if t else _untraced_call
    m = call("constructions.build", build_construction, case.construction, case.dim, NormKind.parse(case.norm))
    fields = call("fields.parse", _parse_fields, m)
    if t is None:
        return run_suite(m, seed=seed, samples=samples, fields=fields)
    return replay_suite(t, m, seed, samples, fields)


def replay_case(t: Tracer, workload, case, built, seed, record):
    """Replay one case traced and book its counters; ``record`` is the
    untraced run of the same case.  Returns None when the replay reports the
    same (check, status, samples) list as ``record`` (or both raised),
    ``OVER_BUDGET`` when the replay ran out of the case budget, and else a
    description of the mismatch."""
    samples = workload.samples
    untraced_s = record.seconds
    if workload.mode == "cli":
        t0 = time.perf_counter()
        try:
            with case_budget():
                _cli_library_calls(None, case, seed, samples)
        except (CaseBudgetExceeded, MemoryError):
            return OVER_BUDGET
        except Exception as exc:  # the record already counts the failure if the CLI raised too
            return f"replay mismatch: library calls raised {type(exc).__name__}" if record.checks else None
        untraced_s = time.perf_counter() - t0
        t.counts["cli.self_s"] += record.seconds - untraced_s
    t.case += 1
    t.counts["trace.cases"] += 1
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with case_budget():
                if workload.mode == "cli":
                    checks = _cli_library_calls(t, case, seed, samples)
                else:
                    checks = replay_suite(t, built, seed, samples)
        except (CaseBudgetExceeded, MemoryError):
            return OVER_BUDGET
        except Exception:  # the untraced run raised too when the records agree
            checks = None
    elapsed = time.perf_counter() - t0
    t.counts["trace.case_s"] += elapsed
    t.counts["trace.overhead_s"] += elapsed - untraced_s
    t.counts["core.fp_warnings"] += sum(issubclass(w.category, RuntimeWarning) for w in caught)
    untraced = [tuple(c[:3]) for c in record.checks]
    replayed = None if checks is None else [tuple(c) for c in checks]
    if (replayed is None and not untraced) or replayed == untraced:
        return None
    t.counts["trace.replay_mismatches"] += 1
    return f"replay mismatch: replayed {replayed}, untraced {untraced}"


# Span names whose inclusive time is reported as <name>.busy_s, in seconds
# per replayed case.
BUSY = (
    "core.piece", "core.contains", "core.norm", "core.sample",
    "constructions.apply", "constructions.predicted_index",
    "verification.sampler", "verification.cover", "verification.piece_continuity",
    "verification.retraction_identity", "verification.norm_identity", "verification.operator",
    "fields.extension", "fields.apply",
)
# Counters reported per replayed case.
PER_CASE = (
    "core.piece.calls", "core.contains.points", "core.norm.points", "core.fp_warnings",
    "constructions.apply.points", "verification.sampler.points", "fields.apply.points",
    "verification.cover.distinct_pieces", "verification.cover.index_sum",
    "cli.self_s", "trace.case_s", "trace.overhead_s",
)
UNITS = {"busy_s": "s", "self_s": "s", "case_s": "s", "overhead_s": "s", "ns_per_point": "ns"}


def layer_metrics(t: Tracer, seed: int) -> dict:
    cases = max(1.0, t.counts["trace.cases"])
    busy = defaultdict(float)
    builds = 0
    for _, name, _, _, start, end in t.spans:
        busy[name] += end - start
        builds += name == "constructions.build"
    values = {f"{name}.busy_s": busy[name] / cases for name in BUSY}
    values["constructions.build.busy_s"] = busy["constructions.build"] / max(1, builds)
    values.update({name: t.counts[name] / cases for name in PER_CASE})
    values["verification.cover.max_index"] = t.counts["verification.cover.max_index"]
    requested = t.counts["verification.piece_continuity.requested"]
    values["verification.piece_continuity.kept_ratio"] = (
        t.counts["verification.piece_continuity.kept"] / requested if requested else 0.0)
    values["trace.replay_mismatches"] = t.counts["trace.replay_mismatches"]
    values.update(norm_probes(seed))
    values.update(contains_probes(seed))
    return {name: (v, UNITS.get(name.rsplit(".", 1)[-1], "count" if "ratio" not in name else "1"))
            for name, v in sorted(values.items())}
