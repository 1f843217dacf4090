"""Run `python -m tddmimo.cli run ARGS...` with src/ on the path and print
its wall time and the peak RSS of its process tree, pool workers included
(RUSAGE_CHILDREN: the pool's first worker reaps the workers it forks, so
their usage reaches this process through it): the line the CI step summary
reports for a cold run.

    python .github/cold_run.py --spec SPEC --out DIR [...]

Run from the root of a checkout.
"""

import os
import resource
import subprocess
import sys
import time

env = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, ["src", os.environ.get("PYTHONPATH")])))
t0 = time.perf_counter()
subprocess.run([sys.executable, "-m", "tddmimo.cli", "run", *sys.argv[1:]], env=env,
               check=True, stdout=subprocess.DEVNULL)
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{wall:.2f} s wall, {rss:.1f} MiB peak RSS")
