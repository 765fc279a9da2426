"""End-to-end and per-layer benchmark of the monotest command line.

Usage (from the repository root; numpy is the only dependency):

    python3 bench/run.py --workload test-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Every operation is one ``python3 -m monotest.cli ...`` call in a fresh
child process, run closed loop by one client: the next call starts when the
previous one has exited.  This script checks every output (see ``Gate``),
times each call from spawn to exit, and takes each call's peak RSS from
``os.wait4``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and a readable summary.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced call with a call through ``bench/trace_child.py``, which spans the
layer functions, and reports the per-layer metrics of the traced calls.
``--smoke`` runs every workload at a tiny size in both modes and checks that
every metric named in BENCHMARK.json comes out with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
RUN_LIMIT_S = 170  # a run that is not done by then is killed and reports no result

# n: rows of the test CSVs; n_mc: sample size of the mc cell; B: bootstrap
# draws; R: replications per mc-cell call; setups: timed imports per run
SIZES = {
    "full": {"n": 2000, "n_mc": 200, "B": 500, "R": 20, "setups": 11},
    "smoke": {"n": 100, "n_mc": 100, "B": 50, "R": 2, "setups": 2},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "reps_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "statistic.field_s": "s",
    "statistic.rss_growth_mb": "MiB",
    "statistic.dense_bytes": "bytes",
    "statistic.window_points": "count",
    "statistic.tie_share": "ratio",
    "statistic.active_ratio": "ratio",
    "bootstrap.self_s": "s",
    "bootstrap.rss_growth_mb": "MiB",
    "bootstrap.draw_flops": "flop",
    "bootstrap.panel_bytes": "bytes",
    "bootstrap.stepdown_iterations": "count",
    "bootstrap.sd_useful_ratio": "ratio",
    "scales.build_s": "s",
    "scales.p": "count",
    "sigma.estimate_s": "s",
    "models.adjust_s": "s",
    "cli.load_s": "s",
    "cli.render_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.report_bytes": "bytes",
    "simlab.rep_s": "s",
    "simlab.gen_s": "s",
    "simlab.failures": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unspanned_s": "s",
}

_TEST_SPANS = (
    "cli.load_columns",
    "sigma.estimate_sigma",
    "scales.build_basic_set",
    "bootstrap.run_report",
    "statistic.evaluate_field",
    "cli.report_to_json",
)
_MC_SPANS = (
    "simlab.run_mc",
    "simlab.gen_design",
    "sigma.estimate_sigma",
    "scales.build_basic_set",
    "bootstrap.run_report",
    "statistic.evaluate_field",
)


class BenchError(Exception):
    """The benchmark cannot produce a result: missing package, timeout, broken trace."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "test": one CSV through `monotest test`; "mc": one `monotest mc` cell
    expected_spans: tuple[str, ...]

    def cli_args(self, size: dict, data: str, seed: int) -> list[str]:
        b = str(size["B"])
        if self.name == "test-large":
            return ["test", data, "--model", "partial-linear", "--z-cols", "z1,z2",
                    "--sigma", "rice", "--cv", "sd", "--boot", b]
        if self.name == "zcell-ties":
            return ["test", data, "--model", "nonparametric-z", "--z-cols", "z1",
                    "--z-cells", "3", "--sigma", "residual", "--cv", "sd", "--boot", b]
        return ["mc", "--cases", "3", "--sizes", str(size["n_mc"]), "--reps", str(size["R"]),
                "--sigma", "rice", "--cv", "pi,os,sd", "--boot", b, "--threads", "1",
                "--format", "csv", "--seed", str(seed)]

    def reps_per_op(self, size: dict) -> int:
        return size["R"] if self.kind == "mc" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("test-large", "test", _TEST_SPANS + ("models.partial_linear_adjust",)),
        Workload("mc-cell", "mc", _MC_SPANS),
        Workload("zcell-ties", "test", _TEST_SPANS + ("scales.build_z_local_set",)),
    )
}


# ------------------------------------------------------------ child processes


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def spawn(argv: list[str], out: Path, err: Path, env: dict) -> tuple[float, int, int]:
    """Run argv to its exit with stdout and stderr in files.

    Returns (wall seconds from spawn to exit, peak RSS in KiB of that child
    alone from wait4, exit code).  The child is killed and reaped if the
    wait is interrupted.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_checked(argv: list[str], work: Path, env: dict, what: str) -> str:
    """Run a helper child that must succeed; return its stdout."""
    out, err = work / "helper.out", work / "helper.err"
    _, _, code = spawn(argv, out, err, env)
    if code != 0:
        raise BenchError(f"{what} exited {code}: {err.read_text(encoding='utf-8').strip()}")
    return out.read_text(encoding="utf-8")


def check_checkout() -> None:
    if not (ROOT / "src" / "monotest" / "cli.py").is_file():
        raise BenchError(f"no monotest package under {ROOT / 'src'}; run from a full checkout")


def probe_env(work: Path, env: dict) -> dict:
    info = json.loads(run_checked([sys.executable, str(BENCH / "env_probe.py")], work, env,
                                  "environment probe"))
    pkg = Path(info["monotest_file"]).resolve()
    if ROOT / "src" not in pkg.parents:
        raise BenchError(f"monotest imported from {pkg}, not from this checkout")
    return info


# ------------------------------------------------------------------ the gate


def summarize(kind: str, text: str) -> dict:
    """The fields of one report that the gate and the reference compare."""
    if kind == "test":
        rep = json.loads(text)
        keys = ("T", "critical_value", "p_value", "A_n", "B", "n", "p_scales",
                "selected_os", "selected_sd", "stepdown_iterations")
        return {"schema": rep["schema"], **{k: rep[k] for k in keys}}
    lines = text.splitlines()
    if lines[0] != "noise,case,n,method,proportion,reps,B,seed":
        raise ValueError(f"unexpected mc header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    out = {"rows": len(rows)}
    for noise, case, n, method, prop, reps, b, seed in rows:
        out[method] = float(prop)
        out.update(noise=noise, case=int(case), n=int(n), reps=int(reps), B=int(b), seed=int(seed))
    return out


class Gate:
    """Correctness checks for every output of one run.

    For any seed: a test report has finite T, 1/(B+1) <= p_value <= 1,
    selected_sd <= selected_os <= p_scales and one row per input row; an mc
    cell has PI <= OS <= SD rejection proportions.  Every output of one input
    is byte-identical to the first.  At the default seed the report matches
    the values recorded from the seed commit: floats to a relative 1e-9,
    integers and mc proportions exactly.
    """

    def __init__(self, workload: Workload, size_name: str, seed: int, rows: int):
        self.workload = workload
        self.size = SIZES[size_name]
        self.seed = seed
        self.rows = rows
        self.first: bytes | None = None
        self.reference = None
        if seed == DEFAULT_SEED:
            refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
            self.reference = refs[size_name][workload.name]

    def check(self, output: bytes) -> list[str]:
        """Problems with one output; empty when it passes."""
        if self.first is None:
            self.first = output
        elif output != self.first:
            return ["output differs from the first output of this input"]
        try:
            s = summarize(self.workload.kind, output.decode("utf-8"))
            problems = self._test_checks(s) if self.workload.kind == "test" else self._mc_checks(s)
        except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
            return [f"unreadable output: {exc!r}"]
        if self.reference is not None:
            problems += self._reference_checks(s)
        return problems

    def _test_checks(self, s: dict) -> list[str]:
        B = self.size["B"]
        checks = {
            "schema is monotest/1": s["schema"] == "monotest/1",
            "T is finite": math.isfinite(s["T"]),
            f"B == {B}": s["B"] == B,
            "1/(B+1) <= p_value <= 1": 1.0 / (B + 1) <= s["p_value"] <= 1.0,
            "selected_sd <= selected_os <= p_scales":
                s["selected_sd"] <= s["selected_os"] <= s["p_scales"],
            f"n == {self.rows} input rows": s["n"] == self.rows,
        }
        return [f"failed: {name} ({s})" for name, ok in checks.items() if not ok]

    def _mc_checks(self, s: dict) -> list[str]:
        size = self.size
        expect = {"rows": 3, "noise": "normal", "case": 3, "n": size["n_mc"], "reps": size["R"],
                  "B": size["B"], "seed": self.seed}
        problems = [f"{k} is {s.get(k)!r}, expected {v!r}" for k, v in expect.items()
                    if s.get(k) != v]
        if not problems and not s["rice-PI"] <= s["rice-OS"] <= s["rice-SD"]:
            problems.append(f"failed: PI <= OS <= SD ({s})")
        return problems

    def _reference_checks(self, s: dict) -> list[str]:
        problems = []
        for key, ref in self.reference.items():
            got = s.get(key)
            if isinstance(ref, float) and self.workload.kind == "test":
                ok = isinstance(got, float) and abs(got - ref) <= 1e-9 * abs(ref)
            else:
                ok = got == ref
            if not ok:
                problems.append(f"{key} is {got!r}, reference {ref!r}")
        return problems


# -------------------------------------------------------------- the layers


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(trace: dict, wall: float, csv_bytes: int, report_bytes: int) -> dict:
    """Per-layer metrics of one traced call from its spans and counters."""
    spans = trace["spans"]
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def total(*names):
        return sum((_dur(s) for s in spans if s["name"] in names), 0.0)

    m = {
        "statistic.field_s": total("statistic.evaluate_field"),
        "scales.build_s": total("scales.build_basic_set", "scales.build_z_local_set"),
        "sigma.estimate_s": total("sigma.estimate_sigma"),
        "models.adjust_s": total("models.partial_linear_adjust"),
        "cli.load_s": total("cli.load_columns"),
        "cli.render_s": total("cli.report_to_json"),
        "simlab.gen_s": total("simlab.gen_design"),
        "cli.csv_bytes": csv_bytes,
        "cli.report_bytes": report_bytes,
    }
    self_s, field_growth, boot_growth = 0.0, [0.0], [0.0]
    for i, span in enumerate(spans):
        if span["name"] == "statistic.evaluate_field":
            field_growth.append((span["rss1_kib"] - span["rss0_kib"]) / 1024)
        if span["name"] == "bootstrap.run_report":
            kids = children[i]
            self_s += _dur(span) - sum(_dur(k) for k in kids)
            after_field = max((k["rss1_kib"] for k in kids), default=span["rss0_kib"])
            boot_growth.append((span["rss1_kib"] - after_field) / 1024)
    m["bootstrap.self_s"] = self_s
    m["statistic.rss_growth_mb"] = max(field_growth)
    m["bootstrap.rss_growth_mb"] = max(boot_growth)

    # one replication: from its gen_design start to the end of its last span
    reps, current = [], None
    for span in spans:
        if span["name"] == "simlab.gen_design":
            if current:
                reps.append(current[1] - current[0])
            current = [span["start"], span["end"]]
        elif current and span["parent"] is not None:
            current[1] = max(current[1], span["end"])
    if current:
        reps.append(current[1] - current[0])
    m["simlab.rep_s"] = statistics.median(reps) if reps else 0.0

    op_wall = wall - trace["post_s"]
    m["trace.unspanned_s"] = op_wall - sum(_dur(s) for s in spans if s["parent"] is None)
    m.update(trace["counters"])
    return m


# ---------------------------------------------------------------- one run


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least 10 samples beyond it."""
    if len(values) < 11:
        return None
    v = sorted(values)
    return 100.0 * (len(v) - 10) / len(v), v[len(v) - 11]


def run(workload: Workload, seed: int, seconds: float, trace: bool, size_name: str,
        log=print) -> dict:
    """One benchmark run; returns the result object of the last output line."""
    size = SIZES[size_name]
    check_checkout()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{workload.name}-"))
    try:
        env = child_env()
        log(json.dumps({"env": probe_env(work, env), "workload": workload.name, "seed": seed,
                        "size": size_name, **size}))
        data, rows, csv_bytes = "", 0, 0
        if workload.kind == "test":
            data = str(work / "data.csv")
            run_checked([sys.executable, str(BENCH / "inputs.py"), workload.name, str(seed),
                         str(size["n"]), data], work, env, "input generator")
            rows, csv_bytes = size["n"], os.path.getsize(data)
        cli = [sys.executable, "-m", "monotest.cli", *workload.cli_args(size, data, seed)]
        gate = Gate(workload, size_name, seed, rows)
        out, err = work / "op.out", work / "op.err"
        untraced: list[tuple[float, int]] = []  # (wall s, peak RSS KiB) per untraced call
        traced: list[dict] = []
        attempted = failed = 0

        def call(argv: list[str]) -> tuple[float, int, bytes, bool]:
            nonlocal attempted, failed
            wall, rss, code = spawn(argv, out, err, env)
            output = out.read_bytes()
            problems = gate.check(output) if code == 0 else [
                f"exit {code}: {err.read_text(encoding='utf-8').strip()[-500:]}"]
            attempted += 1
            failed += bool(problems)
            for p in problems:
                print(f"{workload.name} op {attempted}: {p}", file=sys.stderr)
            return wall, rss, output, not problems

        setups = []
        if not trace:
            imp = [sys.executable, "-c", "import monotest.cli"]
            run_checked(imp, work, env, "import")  # warm-up: writes the bytecode cache
            for _ in range(size["setups"]):
                wall, _, code = spawn(imp, work / "imp.out", work / "imp.err", env)
                if code != 0:
                    raise BenchError(f"import monotest.cli exited {code}")
                setups.append(wall)

        spans_path = work / "spans.json"
        start = time.monotonic()
        while not untraced or time.monotonic() - start < seconds:
            wall, rss, _, _ = call(cli)
            untraced.append((wall, rss))
            if not trace:
                continue
            spans_path.unlink(missing_ok=True)
            op_id = f"{workload.name}-{seed}-{attempted + 1}"
            wall, _, output, ok = call([sys.executable, str(BENCH / "trace_child.py"),
                                        str(spans_path), op_id, "--", *cli[3:]])
            if not ok:
                continue
            t = json.loads(spans_path.read_text(encoding="utf-8"))
            fired = [s["name"] for s in t["spans"]]
            missing = [name for name in workload.expected_spans if name not in fired]
            if missing:
                raise BenchError(f"traced {workload.name}: expected spans never fired: {missing}")
            if fired.count("statistic.evaluate_field") != fired.count("bootstrap.run_report"):
                raise BenchError(f"traced {workload.name}: evaluate_field and run_report spans "
                                 "do not pair up")
            if t["counters"]["simlab.failures"] != 0:
                failed += 1
                print(f"{workload.name} op {attempted}: "
                      f"{t['counters']['simlab.failures']} replications failed", file=sys.stderr)
            traced.append({"wall": wall - t["post_s"],
                           **layer_metrics(t, wall, csv_bytes, len(output))})

        walls = [w for w, _ in untraced]
        if trace:
            if not traced:
                raise BenchError(f"traced {workload.name}: no traced call completed")
            metrics = {name: statistics.median(t[name] for t in traced) for name in PER_LAYER_UNITS
                       if name != "trace.overhead_ratio"}
            traced_wall = statistics.median(t["wall"] for t in traced)
            metrics["trace.overhead_ratio"] = traced_wall / statistics.median(walls)
            share = (metrics["statistic.field_s"] + metrics["bootstrap.self_s"]) / traced_wall
            log(f"# {workload.name}: {len(traced)} traced calls ({failed} of {attempted} calls "
                f"failed), median traced wall "
                f"{traced_wall:.4f} s; field + bootstrap self = {100 * share:.1f}% of it")
            units = PER_LAYER_UNITS
        else:
            wall_s = statistics.median(walls)
            metrics = {
                "wall_s": wall_s,
                "peak_rss_mb": statistics.median(rss for _, rss in untraced) / 1024,
                "setup_s": statistics.median(setups),
                "reps_per_s": workload.reps_per_op(size) / wall_s,
            }
            t = tail(walls)
            tail_text = (f"p{t[0]:.1f} {t[1]:.4f} s" if t else
                         "no percentile has 10 samples beyond it")
            log(f"# {workload.name}: {len(walls)} calls ({failed} failed), wall median "
                f"{wall_s:.4f} s, tail {tail_text}; {len(setups)} imports, setup median "
                f"{metrics['setup_s']:.4f} s")
            units = END_TO_END_UNITS
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ------------------------------------------------------------------- smoke


def smoke() -> int:
    """Run every workload tiny in both modes; check metric names, units and the gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = 0
    for workload in WORKLOADS.values():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            signal.alarm(RUN_LIMIT_S)
            res = run(workload, DEFAULT_SEED, 1, trace, "smoke", log=lambda _: None)
            signal.alarm(0)
            got = res["metrics"]
            problems = [] if res["correct"] else [f"{res['failed']} failed operations"]
            for m in spec[section]:
                if m["name"] not in got:
                    problems.append(f"missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{m['name']} unit {got[m['name']]['unit']!r} != {m['unit']!r}")
            extra = set(got) - {m["name"] for m in spec[section]}
            problems += [f"metric {name} not in BENCHMARK.json" for name in sorted(extra)]
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload.name} trace={int(trace)}: {res['attempted']} ops, {status}")
            bad += bool(problems)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        signal.alarm(RUN_LIMIT_S)
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), "full")
        signal.alarm(0)
    except (BenchError, TimeoutError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
