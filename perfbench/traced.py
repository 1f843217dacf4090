"""Run one `tddmimo` CLI process with spans around the calls into each layer.

    python3 perfbench/traced.py TRACE_JSON run --spec SPEC --out DIR [...]

Everything after TRACE_JSON is passed to `tddmimo.cli.main`.  The
module-level names that callers look up (for example
`tddmimo.rates.eta_moments` or `tddmimo.moments.draw_channel`) and the
methods of `MomentSource` and `MomentCache` are replaced by wrappers that
record a span per call: name, start, end and the enclosing span.  Spans stay
in memory and are written to TRACE_JSON when the program returns.
`draw_channel` runs once per Monte Carlo sample, so it is kept as a count
and a total that is charged to the enclosing span instead.  Pool worker
processes inherit the wrappers, but what they record never leaves them.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

clock = time.perf_counter


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, aggregated_child_s]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.aggregates: dict[str, list] = {}  # name -> [calls, total_s]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, clock(), None, self.stack[-1] if self.stack else -1, 0.0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = clock()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result) runs once fn returns."""
        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result)
            return result
        return wrapper

    def aggregate(self, name: str, fn):
        """fn wrapped in a call counter and timer charged to the open span."""
        entry = self.aggregates.setdefault(name, [0, 0.0])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                entry[0] += 1
                entry[1] += dt
                if self.stack:
                    self.spans[self.stack[-1]][4] += dt
        return wrapper


def _patch(targets, wrapper_for):
    """Replace one function under every (module, name) that refers to it."""
    original = getattr(*targets[0])
    wrapped = wrapper_for(original)
    for module, attr in targets:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"{module.__name__}.{attr} is not the traced function")
        setattr(module, attr, wrapped)


def install(tracer: Tracer):
    import tddmimo.cli as cli
    import tddmimo.experiments as experiments
    import tddmimo.moments as moments
    import tddmimo.rates as rates

    def singular(result):
        tracer.count("moments.singular_draws", result.singular_events)

    def spanned(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    _patch([(cli, "parse_spec")], spanned("experiments.parse_spec"))
    _patch([(cli, "run_experiment")], spanned("experiments.run_experiment"))
    _patch([(experiments, "c_net")], spanned("rates.c_net"))
    _patch([(experiments, "c_sum_lb"), (rates, "c_sum_lb")], spanned("rates.c_sum_lb"))
    _patch([(experiments, "c_wt_net")], spanned("rates.c_wt_net"))
    for method in ("eta", "phi", "weighted"):
        _patch([(rates.MomentSource, method)], spanned("rates.moment_request"))
    _patch([(rates, "eta_moments")], spanned("moments.eta"))
    _patch([(rates, "weighted_phi_stats")], spanned("moments.weighted", singular))
    _patch([(rates, "alpha_beta")], spanned("power_opt.alpha_beta"))
    _patch([(rates, "waterfill")], spanned("power_opt.waterfill"))
    _patch([(moments.MomentCache, "__init__")], spanned("moments.cache_load"))
    _patch([(moments, "draw_channel")], lambda fn: tracer.aggregate("channel_model.draw", fn))

    # one wrapper for every compute callback: building a wrapped function per
    # lookup would charge its cost to moments.cache_self_s on every hit
    traced_compute = tracer.span("moments.compute", lambda compute: compute(), singular)

    def traced_cached(cached):
        @wraps(cached)
        def wrapper(cache, key, compute):
            return cached(cache, key, lambda: traced_compute(compute))
        return tracer.span("moments.cache", wrapper)

    _patch([(moments.MomentCache, "cached")], traced_cached)

    class TracedPool(moments.ProcessPoolExecutor):
        """One span from pool start to shutdown, around the parent's wait."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.begin("moments.pool")
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)

    moments.ProcessPoolExecutor = TracedPool


def main(trace_path: str, argv: list[str]) -> int:
    t0 = clock()
    import tddmimo.cli
    import_s = clock() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return tddmimo.cli.main(argv)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "counts": tracer.counts, "aggregates": tracer.aggregates}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
