"""Record the default-seed reference values that the benchmark's gate compares against.

Usage: python3 bench/record_reference.py   (from the repository root)

Runs each workload once at the default seed, at the full and the smoke
size, and writes the compared report fields to bench/reference.json.  The
committed file was recorded from the package as it stood when the benchmark
was defined; re-recording it on a later version would turn the gate's
reference check into a check of that version against itself.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (bench/run.py)


def main() -> int:
    run.check_checkout()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK, prefix="reference-"))
    try:
        env = run.child_env()
        refs: dict[str, dict] = {}
        for size_name, size in run.SIZES.items():
            for workload in run.WORKLOADS.values():
                data = str(work / "data.csv")
                if workload.kind == "test":
                    run.run_checked([sys.executable, str(run.BENCH / "inputs.py"), workload.name,
                                     str(run.DEFAULT_SEED), str(size["n"]), data],
                                    work, env, "input generator")
                argv = [sys.executable, "-m", "monotest.cli",
                        *workload.cli_args(size, data, run.DEFAULT_SEED)]
                text = run.run_checked(argv, work, env, workload.name)
                refs.setdefault(size_name, {})[workload.name] = run.summarize(workload.kind, text)
                print(size_name, workload.name, refs[size_name][workload.name])
        run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
