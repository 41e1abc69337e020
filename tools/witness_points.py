"""Print the witness points of the negative-control suites.

Usage (from the root of a checkout): python3 tools/witness_points.py

Runs `run_suite` at seed 7 with 2,000 samples on the fractional, glue,
extend, sphere and open-ball constructions (the radial ones in dimension 3,
all under the Euclidean norm), each under the halved, shrinking-witness and
understated-lipschitz controls, and prints one line per report: the suite,
the check and its `witness_points`.  The choice and order of witness points
must not depend on the kernels numpy dispatches to, so two runs, one with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" and one without,
print the same lines; on a CPU without AVX-512 both take the same path.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from pcretract.constructions import build_construction  # noqa: E402
from pcretract.core import NormKind  # noqa: E402
from pcretract.verification import CORRUPTIONS, run_suite  # noqa: E402

CONSTRUCTIONS = ("fractional", "glue", "extend", "sphere", "open-ball")
CONTROLS = ("halved", "shrinking-witness", "understated-lipschitz")


def main() -> int:
    for construction in CONSTRUCTIONS:
        m = build_construction(construction, 1 if construction in ("fractional", "glue") else 3, NormKind(2.0))
        for control in CONTROLS:
            for r in run_suite(CORRUPTIONS[control](m), seed=7, samples=2_000):
                print(f"{construction} {control} {r.check_name}: {r.witness_points!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
