"""Run one monotest CLI operation in-process with a span around each layer call.

Usage: python3 bench/trace_child.py SPANS.json OP_ID -- CLI-ARGS...
       (with the package's src/ on PYTHONPATH)

Wraps the public layer functions at the names their callers look up, runs
``monotest.cli.main(CLI-ARGS)``, and writes the spans and the work counters
to SPANS.json when the operation ends.  Each span records its name, start,
end, parent span and ``ru_maxrss`` before and after.  The counters are
computed here from the inputs the program was given, not read from it, so
they repeat exactly for one input.  The report still goes to stdout, so
run.py can check that tracing leaves it byte-identical.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

# (module, attribute its callers look up, span name "<layer>.<function>")
PATCHES = (
    ("monotest.cli", "load_columns", "cli.load_columns"),
    ("monotest.cli", "partial_linear_adjust", "models.partial_linear_adjust"),
    ("monotest.cli", "estimate_sigma", "sigma.estimate_sigma"),
    ("monotest.cli", "build_basic_set", "scales.build_basic_set"),
    ("monotest.cli", "build_z_local_set", "scales.build_z_local_set"),
    ("monotest.cli", "run_report", "bootstrap.run_report"),
    ("monotest.cli", "report_to_json", "cli.report_to_json"),
    ("monotest.cli", "run_mc", "simlab.run_mc"),
    ("monotest.simlab", "gen_design", "simlab.gen_design"),
    ("monotest.simlab", "estimate_sigma", "sigma.estimate_sigma"),
    ("monotest.simlab", "build_basic_set", "scales.build_basic_set"),
    ("monotest.simlab", "run_report", "bootstrap.run_report"),
    ("monotest.bootstrap", "evaluate_field", "statistic.evaluate_field"),
)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans of one operation, kept in memory, plus the call data the counters need."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.reports: list[tuple] = []  # (sample, scale set, B, TestReport) per run_report
        self.active: list[int] = []  # active scale count per evaluate_field
        self.mc_results: list = []

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"op": self.op_id, "name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(idx)
            span["rss0_kib"] = _maxrss_kib()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span["rss1_kib"] = _maxrss_kib()
                span["start"] = start - self.t0
                span["end"] = end - self.t0
                self._stack.pop()
            self._record(name, args, result)
            return result

        return traced

    def _record(self, name: str, args, result) -> None:
        # keep only small objects: the field result holds the p x n matrix
        if name == "bootstrap.run_report":
            sample, _, set_, cfg = args[:4]
            self.reports.append((sample, set_, cfg.B, result))
        elif name == "statistic.evaluate_field":
            self.active.append(int(result.active_ids.size))
        elif name == "simlab.run_mc":
            self.mc_results.extend(result)

    def install(self) -> None:
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            # getattr raises if a refactor renamed the call site
            setattr(module, attr, self.wrap(getattr(module, attr), span_name))

    def counters(self) -> dict[str, float]:
        """Work counters computed from each run_report call's inputs.

        run.py checks that evaluate_field and run_report spans pair up
        before it uses these.
        """
        import numpy as np

        c = {
            "scales.p": 0,
            "statistic.window_points": 0,
            "statistic.dense_bytes": 0,
            "statistic.tie_share": 0.0,
            "bootstrap.draw_flops": 0,
            "bootstrap.panel_bytes": 0,
            "bootstrap.stepdown_iterations": 0,
        }
        total_p = total_active = total_sd = 0
        for (sample, set_, B, report), active in zip(self.reports, self.active):
            n, p = sample.n, set_.p
            xs = np.sort(sample.x)
            loc = np.array([s.x for s in set_.scales])
            radius = np.array([s.h for s in set_.scales]) * set_.kernel.support_radius
            # the field's window bounds: open interval (x - radius, x + radius)
            m = np.searchsorted(xs, loc + radius, side="left") - np.searchsorted(
                xs, loc - radius, side="right"
            )
            c["scales.p"] = max(c["scales.p"], p)
            c["statistic.window_points"] += int(m[m >= 2].sum())
            c["statistic.dense_bytes"] = max(c["statistic.dense_bytes"], p * n * 8)
            c["statistic.tie_share"] = max(c["statistic.tie_share"], 1.0 - np.unique(xs).size / n)
            c["bootstrap.draw_flops"] += 2 * active * n * B
            c["bootstrap.panel_bytes"] = max(c["bootstrap.panel_bytes"], n * B * 8)
            c["bootstrap.stepdown_iterations"] += report.stepdown_iterations
            total_p += p
            total_active += active
            total_sd += report.selected_sizes[2]
        c["statistic.active_ratio"] = total_active / total_p if total_p else 0.0
        c["bootstrap.sd_useful_ratio"] = total_sd / total_active if total_active else 0.0
        c["simlab.failures"] = max((r.failures for r in self.mc_results), default=0)
        return c


def main(argv) -> int:
    spans_path, op_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS.json OP_ID -- CLI-ARGS...")
    tracer = Tracer(op_id)
    import monotest.cli

    tracer.install()
    code = monotest.cli.main(cli_args)
    sys.stdout.flush()
    post_start = time.perf_counter()
    out = {"op": op_id, "exit_code": code, "spans": tracer.spans, "counters": tracer.counters()}
    # time spent here is the tracer's own and is not part of the operation
    out["post_s"] = time.perf_counter() - post_start
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
