"""Set-up probe: import tddmimo, parse and validate a spec, open a moment cache.

    python3 perfbench/setup_probe.py SPEC OUT_DIR

The benchmark times this process from spawn to exit and reports the median
over several probes as setup_s.  It goes through the public calls only.
"""

import sys
from pathlib import Path

import tddmimo
from tddmimo.experiments import parse_spec

spec = parse_spec(Path(sys.argv[1]).read_text())
cache = tddmimo.MomentCache(Path(sys.argv[2]) / "moments_cache.txt")
print(f"preset={spec.preset} cached_moments={len(cache)}")
