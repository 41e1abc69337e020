"""Make the checkout's own ``src/pcretract`` the package that gets imported.

The benchmark builds nothing: it runs the sources of the checkout it sits in.
Importing this module exits with code 2 when those sources are missing, so a
directory holding only the benchmark fails fast instead of measuring some
other copy of the package.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "pcretract" / "__init__.py").is_file():
    sys.stderr.write(f"perfbench: no pcretract sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))
