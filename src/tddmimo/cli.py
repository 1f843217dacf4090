"""Command-line entry point: run sweeps, validate specs, inspect the cache.

Exit codes: 0 on success, 1 on spec validation failure, 2 on runtime error.
`main(argv)` returns its code to a caller.  The `tddmimo` console script and
`python -m tddmimo.cli` go through `entry()`, which flushes stdout and stderr
once `main` returns and ends the process with `os._exit`, so interpreter
teardown and atexit handlers do not run.  Every file a run writes is closed
before `main` returns.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn

from .experiments import CACHE_DIR, SpecValidationError, parse_spec, run_experiment
from .moments import MomentCache


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tddmimo",
        description="Sum-rate and weighted-sum-rate sweeps for the TDD "
                    "multi-user MIMO downlink with reciprocal training.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment sweep")
    run.add_argument("--spec", required=True, help="key=value spec file")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override spec seed")
    run.add_argument("--samples", type=int, default=None,
                     help="override Monte Carlo sample count")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel sampling workers")

    val = sub.add_parser("validate", help="validate a spec file")
    val.add_argument("--spec", required=True)
    val.set_defaults(seed=None, samples=None, workers=1)  # no overrides

    info = sub.add_parser("cache-info", help="summarize a moment cache")
    info.add_argument("--out", default="out",
                      help=f"output directory whose {CACHE_DIR}/ holds the records")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command in ("run", "validate"):
        try:
            text = Path(args.spec).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read spec: {exc}", file=sys.stderr)
            return 2
        violations = ["workers must be at least 1"] if args.workers < 1 else []
        try:
            spec = parse_spec(text, seed=args.seed, samples=args.samples)
        except SpecValidationError as exc:
            violations = exc.violations + violations
        for violation in violations:
            print(f"invalid spec: {violation}", file=sys.stderr)
        if violations:
            return 1
        if args.command == "validate":
            print(f"spec ok: preset={spec.preset}, output={spec.output}")
            return 0
        try:
            manifest = run_experiment(spec, args.out, workers=args.workers)
        except Exception as exc:  # noqa: BLE001 - surface as exit code 2
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2
        for k, v in manifest.items():
            print(f"{k}={v}")
        return 0

    # cache-info
    cache = MomentCache(Path(args.out) / CACHE_DIR)
    if not cache.dir.is_dir():
        print(f"no cache at {cache.dir}")
        return 0
    print(f"cache: {cache.dir}")
    print(f"records: {len(cache)}")
    for kind, count in sorted(cache.kind_counts().items()):
        print(f"  {kind}: {count}")
    return 0


def entry() -> NoReturn:
    """main() as a process: flush stdout and stderr, then `os._exit` with its
    code.  An exception from main (argparse's SystemExit, KeyboardInterrupt)
    or from a flush exits the normal way."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
