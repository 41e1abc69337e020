"""Print sha256 prefixes of the package's reports, to compare two checkouts.

Usage (from the root of a checkout): python3 tools/report_hashes.py

The first six lines hash the seed-7 `pcretract verify --format json` report
of each construction, with `--dim 3 --fields coord:0,sin:1,cos:2,const:2,poly:0:3`
for the four radial ones: the bytes the CLI prints, as `verify ... | sha256sum`
would hash them.  The last three hash one perfbench workload each: every
(case index, suite seed) pair of its `workloads.case_pool`, in pool order, run
by `workloads.run_case` at the workload's sample count and fed to one sha256
as `repr((index, seed, tuples))`.  A case that raises is hashed as
`repr((index, seed, repr(exc)))`.  Two checkouts whose reports match print the
same lines.  Each line ends with the number of Python warnings (numpy's
floating-point warnings among them) that computing its hash raised; they are
counted, not printed to stderr.

The hashes are bits, so they hold on one machine and numpy build.  At a p
outside {1, 2, max}, norms raise arrays to the power p with numpy's SIMD
pow, whose last bit depends on the kernel numpy dispatches to: with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" on an AVX-512 CPU,
the diagonal-cover line reads 7c62b95fce087bac for eb34a6b880e9be73 and the
radial-norms line 907042f600ce50d3 for 87e0f943bddda414, and the other
seven lines do not move.  Compare checkouts on one machine.

The script imports the checkout's own `src/` (through `perfbench/paths.py`)
and `perfbench/workloads.py`, and changes neither.  It only reports: an error
prints in place of a hash, and the exit code is 0.
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

FIELDS = "coord:0,sin:1,cos:2,const:2,poly:0:3"
RADIAL = ("extend", "const-extend", "sphere", "open-ball")


def _prefix(h) -> str:
    return h.hexdigest()[:16]


def verify_hash(construction: str) -> str:
    from pcretract import cli

    args = ["verify", "--construction", construction, "--seed", "7", "--format", "json"]
    if construction in RADIAL:
        args += ["--dim", "3", "--fields", FIELDS]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(args)
    return _prefix(hashlib.sha256(out.getvalue().encode()))


def pool_hash(name: str) -> str:
    import workloads

    w = workloads.WORKLOADS[name]
    h = hashlib.sha256()
    for index, seed in workloads.case_pool(w):
        case = w.cases[index]
        try:
            built = case.build() if w.mode == "suite" else None
            tuples = workloads.run_case(w, case, built, seed, w.samples)
        except Exception as exc:
            tuples = repr(exc)
        h.update(repr((index, seed, tuples)).encode())
    return _prefix(h)


def main() -> int:
    try:
        import paths  # noqa: F401  (puts the checkout's src/ first on sys.path)
    except SystemExit:  # paths has already said that src/ is missing
        return 0
    from pcretract.constructions import CONSTRUCTION_IDS
    from workloads import WORKLOADS

    jobs = [(f"verify {c}", verify_hash, c) for c in CONSTRUCTION_IDS]
    jobs += [(f"pool {w}", pool_hash, w) for w in WORKLOADS]
    for label, fn, arg in jobs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = fn(arg)
            except Exception as exc:
                value = f"error: {exc!r}"
        print(f"{label}: {value} ({len(caught)} warnings)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
