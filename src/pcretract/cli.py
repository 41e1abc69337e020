"""Command-line interface: verify suites, witness inspection, discontinuity demo.

Exit codes: 0 = no check failed, 1 = at least one check failed (or the
reader of stdout closed the pipe), 2 = usage or configuration error.  The
text report ends in ``result: ALL PASS`` only when every check passed; with
inconclusive checks and no failure it says ``NO FAILURES`` and counts them.
Identical invocations (same flags, same seed) produce byte-identical
output; numeric text output uses 17 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .core import DEFAULT_TOLERANCE, EUCLIDEAN, NormKind, Tolerance, piece
from .constructions import (
    CONSTRUCTION_IDS,
    INDEX_CAP,
    ConstructionError,
    build_construction,
    sphere_retraction,
)
from .fields import FIELD_HEADS, FieldDomainError, parse_field
from .verification import borsuk_discontinuity_demo, run_suite

SEED_ENV = "PCRETRACT_SEED"

# Upper bounds on verify's work flags, so a typo gets an exit-2 error rather
# than a run that exhausts memory or never ends.
MAX_SAMPLES = 10**7
MAX_PIECE_INDEX = 10**4
# The paper's spaces are low-dimensional; at 10**8 one point alone takes 800 MB.
MAX_DIM = 1000
# verify draws point sets of --samples, and batches of --pairs, rows of --dim
# floats; at this many coordinates one such array takes 240 MB.
MAX_COORDINATES = 3 * 10**7
# The continuity checks draw --pairs rows for each of --max-piece-index
# pieces, at 0.1-0.4 us a row in dimensions 1 to 3 (200 pieces of 2,000
# pairs on a 2-vCPU x86-64 VM): this many take 10-40 s.
MAX_PAIR_ROWS = 10**8


def _env_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"{SEED_ENV} must be >= 0, got {seed}")
    return seed


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_vector(flag: str, text: str) -> np.ndarray:
    try:
        v = np.array([float(c) for c in text.split(",")], dtype=float)
        ok = np.all(np.isfinite(v))
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"{flag} must be comma-separated finite numbers, got {text!r}")
    return v


@functools.cache  # one parser per process: main() parses every call with it
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pcretract", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--construction", required=True, choices=CONSTRUCTION_IDS)
        sp.add_argument("--dim", type=int, default=None,
                        help="default 2; fractional and glue take only 1")
        sp.add_argument("--norm", default="p:2",
                        help="'p:<value>' or 'max'; fractional and glue take only p:2")
        sp.add_argument("--paper-witness", action="store_true",
                        help="sphere only: use the un-augmented band witness, which misses the origin")

    v = sub.add_parser("verify", help="run the full check suite for a construction")
    common(v)
    v.add_argument("--seed", type=int, default=None, help=f"defaults to ${SEED_ENV}, else 0")
    v.add_argument("--samples", type=int, default=10_000)
    v.add_argument("--max-piece-index", type=int, default=10)
    v.add_argument("--pairs", type=int, default=2_000)
    v.add_argument("--membership-tol", type=float, default=DEFAULT_TOLERANCE.membership_tol)
    v.add_argument("--identity-tol", type=float, default=DEFAULT_TOLERANCE.identity_tol)
    v.add_argument("--fields", default="",
                   help="comma-separated field expressions, e.g. coord:0,prod:0,1,poly:0:1,2")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--output", default=None, help="also write the report to this path")

    w = sub.add_parser("witness", help="print a witness piece as descriptor JSON")
    common(w)
    w.add_argument("--n", type=int, required=True)

    d = sub.add_parser("demo", help="discontinuity-at-the-origin evidence table")
    d.add_argument("--dim", type=int, default=2)
    d.add_argument("--norm", default="p:2")
    d.add_argument("--depth", type=int, default=12)
    d.add_argument("--u", default=None, help="unit direction, comma-separated coordinates")
    d.add_argument("--v", default=None, help="unit direction, comma-separated coordinates")
    return p


# Constructions defined on R with the Euclidean norm only.
LINE_CONSTRUCTIONS = ("fractional", "glue")
# A map depends only on build_construction's arguments and no check changes
# it, so in-process main() calls share one per argument tuple; eight hold
# the six constructions at one dimension and norm.
_cached_construction = functools.lru_cache(maxsize=8)(build_construction)


def _build_map(args):
    if args.paper_witness and args.construction != "sphere":
        raise ConstructionError(f"--paper-witness applies only to sphere, not {args.construction}")
    kind = NormKind.parse(args.norm)
    dim = 2 if args.dim is None else args.dim
    if args.construction in LINE_CONSTRUCTIONS:
        if args.dim is not None and dim != 1:
            raise ConstructionError(f"--dim: {args.construction} lives in dimension 1, got {dim}")
        if kind != EUCLIDEAN:
            raise ConstructionError(
                f"--norm: {args.construction} uses the norm p:2, got {kind.label()}"
            )
        dim = 1
    return _cached_construction(args.construction, dim, kind, paper_witness=args.paper_witness)


# A comma starts a new field expression only before a catalog head, since
# prod:<i>,<j> and poly:<i>:<c0>,<c1>,... contain commas themselves.
_FIELD_SEPARATOR = re.compile(r",(?=\s*(?:" + "|".join(FIELD_HEADS) + "):)")


def _check_range(flag: str, value: int, hi: int) -> None:
    if not 1 <= value <= hi:
        raise ConstructionError(f"{flag} must be between 1 and {hi}, got {value}")


def cmd_verify(args) -> int:
    _check_range("--samples", args.samples, MAX_SAMPLES)
    _check_range("--pairs", args.pairs, MAX_SAMPLES)
    _check_range("--max-piece-index", args.max_piece_index, MAX_PIECE_INDEX)
    if args.pairs * args.max_piece_index > MAX_PAIR_ROWS:
        raise ConstructionError(
            f"--pairs times --max-piece-index must be at most {MAX_PAIR_ROWS}, "
            f"got {args.pairs} * {args.max_piece_index}"
        )
    for flag, value in (("--membership-tol", args.membership_tol), ("--identity-tol", args.identity_tol)):
        if not 0.0 < value < math.inf:  # an infinite tolerance passes every check
            raise ConstructionError(f"{flag} must be a finite number > 0, got {value}")
    m = _build_map(args)
    for flag, count in (("--samples", args.samples), ("--pairs", args.pairs)):
        if count * m.dim > MAX_COORDINATES:
            raise ConstructionError(
                f"{flag} times --dim must be at most {MAX_COORDINATES}, got {count} * {m.dim}"
            )
    tol = Tolerance(membership_tol=args.membership_tol, identity_tol=args.identity_tol)
    fields = []
    if args.fields:
        for expr in _FIELD_SEPARATOR.split(args.fields):
            fields.append(parse_field(expr, m.codomain.dim, m.codomain, radius=1.0))
    # Opened before the suite runs, so an unwritable path costs no run.
    try:
        out = open(args.output, "w", encoding="utf-8") if args.output else contextlib.nullcontext()
    except OSError as exc:
        raise ConstructionError(f"--output: cannot write {args.output}: {exc.strerror}") from None
    with out:
        reports = run_suite(
            m,
            seed=args.seed,
            samples=args.samples,
            max_piece_index=args.max_piece_index,
            pairs=args.pairs,
            tolerance=tol,
            fields=fields,
        )
        all_pass = all(r.status != "fail" for r in reports)
        doc = {
            "construction": args.construction,
            "dim": m.dim,
            "norm": m.kind.label(),
            "seed": args.seed,
            "samples": args.samples,
            "all_pass": all_pass,
            "checks": [r.to_json_dict() for r in reports],
        }
        if args.format == "json":
            text = json.dumps(doc, indent=2)
        else:
            lines = [f"construction={args.construction} dim={m.dim} norm={m.kind.label()} "
                     f"seed={args.seed} samples={args.samples}"]
            for r in reports:
                lines.append(
                    f"[{r.status.upper():>12}] {r.check_name}: "
                    f"max_violation={_fmt(r.max_violation)} tolerance={_fmt(r.tolerance)} "
                    f"samples={r.samples_used}"
                )
            unsure = sum(r.status == "inconclusive" for r in reports)
            if not all_pass:
                result = "FAILURES"
            elif unsure:
                result = f"NO FAILURES ({unsure} of {len(reports)} checks inconclusive)"
            else:
                result = "ALL PASS"
            lines.append("result: " + result)
            text = "\n".join(lines)
        print(text)
        if args.output:
            out.write(text + "\n")
    return 0 if all_pass else 1


def cmd_witness(args) -> int:
    # Past INDEX_CAP every predicted index saturates, and float(n) can overflow.
    if not 0 <= args.n <= INDEX_CAP:
        raise ConstructionError(f"--n must be between 0 and {int(INDEX_CAP)}, got {args.n}")
    m = _build_map(args)
    print(json.dumps(piece(m.witness, args.n).to_json(), indent=2))
    return 0


def cmd_demo(args) -> int:
    if args.dim < 2 and (args.u is None or args.v is None):
        raise ConstructionError("default directions need dimension >= 2")
    kind = NormKind.parse(args.norm)
    m = sphere_retraction(args.dim, kind)
    # By default the unit vectors e1 and e2.
    u = _parse_vector("--u", args.u) if args.u is not None else np.eye(1, args.dim, 0)[0]
    v = _parse_vector("--v", args.v) if args.v is not None else np.eye(1, args.dim, 1)[0]
    rows = borsuk_discontinuity_demo(m, u, v, depth=args.depth)
    print(f"{'k':>3}  {'scale':>24}  {'input_gap':>24}  {'output_gap':>24}")
    for r in rows:
        print(f"{r.k:>3}  {_fmt(r.scale):>24}  {_fmt(r.input_gap):>24}  {_fmt(r.output_gap):>24}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = getattr(args, "seed", 0)  # only verify draws, so only it has a seed
        if seed is None:
            args.seed = _env_seed()
        elif seed < 0:
            raise ValueError(f"--seed must be >= 0, got {seed}")
        if args.dim is not None and args.dim < 1:  # every command takes --dim
            raise ConstructionError(f"--dim must be at least 1, got {args.dim}")
        if args.dim is not None and args.dim > MAX_DIM:
            raise ConstructionError(f"--dim must be at most {MAX_DIM}, got {args.dim}")
        command = {"verify": cmd_verify, "witness": cmd_witness, "demo": cmd_demo}[args.command]
        code = command(args)
        sys.stdout.flush()
        return code
    except (ConstructionError, FieldDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (`| head`).  As the Python docs' "Note on
        # SIGPIPE" advises, point stdout at devnull so the exit flush stays
        # quiet, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
