"""Command-line frontend: CSV in, JSON or CSV reports out.

Three subcommands:

``test``
    Load a dataset, apply the chosen model adjustment, estimate sigma, build
    the scale set, run the bootstrap, and write a JSON report.
``mc``
    Run the Monte Carlo harness over a grid of designs and write the result
    table as CSV or human-readable text.
``diag``
    List the scale set and the sensitivity diagnostic A_n for a dataset
    without running the test itself.

Exit codes: 0 success, 2 data, configuration or flag error (including a
field too large to allocate), 3 degenerate variance on every scale.  Every
error leaves as one monotest/error1 JSON object on stderr.  An out-of-memory
kill by the operating system, which overcommit can cause instead of a failed
allocation, ends the process before it can report anything.  Reports use
fixed field order and 17 significant digits, so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import sys

import numpy as np

from .bootstrap import CV_METHODS, BootConfig, TestReport, run_report
from .errors import DataError, DegenerateVarianceError
from .models import additive_adjust, endogenous_adjust, partial_linear_adjust, selection_adjust
from .scales import KERNELS, _distinct, build_basic_set, build_custom_set, build_z_local_set
from .sigma import estimate_sigma
from .simlab import NOISES, McDesign, results_to_csv, results_to_text, run_mc
from .statistic import Sample, evaluate_field

__all__ = ["main", "build_parser", "load_columns", "report_to_json"]

# model (sigma method) -> every conditional flag it reads (and the estimator keyword
# it fills).  Any other exits 2, as does a column flag it reads that was not given.
# Option flags default to None and are passed only when given: callees hold defaults.
MODEL_FLAGS = {
    "simple": (),
    "partial-linear": ("--z-cols", "--first-stage-degree"),
    "additive": ("--z-cols", "--L"),
    "nonparametric-z": ("--z-cols", "--z-cells", "--z-bw"),
    "endogenous": ("--u-cols", "--first-stage-degree", "--L"),
    "selection": ("--z-cols", "--d-col", "--pscore-degree", "--L"),
}
SIGMA_FLAGS = {
    "rice": {}, "local-rice": {"--sigma-bn": "b_n"},
    "residual": {"--sigma-degree": "degree"}, "two-step-poly": {"--sigma-degree": "degree"},
}
COLUMN_FLAGS = ("--z-cols", "--u-cols", "--d-col")
Z_CELLS = 3  # quantile cells per z dimension when --z-cells is absent


# ---------------------------------------------------------------- CSV input


def _column_positions(path: str, reader, names) -> list[int]:
    """Read the header row and give each name's position in it."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    positions = []
    for name in names:
        at = [j for j, h in enumerate(header) if h == name]
        if not at:
            raise DataError(f"{path}: missing column {name!r} (header: {header})")
        if len(at) > 1:
            raise DataError(
                f"{path}: column {name!r} appears more than once in the header "
                f"(positions {', '.join(str(j + 1) for j in at)})"
            )
        positions.append(at[0])
    return positions


def _cell_value(path: str, row, rownum: int, j: int, name: str) -> float:
    """Cell j of a row as a float, or the DataError that names its row and column."""
    cell = row[j].strip() if j < len(row) else ""
    where = f"at row {rownum}, column {name!r}"
    if cell == "":
        raise DataError(f"{path}: blank cell {where}")
    try:
        v = float(cell)
    except ValueError:
        raise DataError(f"{path}: non-numeric cell {cell!r} {where}") from None
    if not math.isfinite(v):
        raise DataError(f"{path}: non-finite value {cell!r} {where}")
    return v


def load_columns(path: str, names) -> dict[str, np.ndarray]:
    """Read the named columns from a headered CSV file as float arrays.

    Rejects a requested column that is missing or named twice in the header,
    blank or non-numeric cells (naming the row and column), non-finite
    values, and files with fewer than two data rows.  Rows of blank cells
    are skipped.  One pass reads the file: each row's named cells are parsed
    at once, and a row is read cell by cell only when that fails or its sum
    is not finite, so each message names the first bad cell.
    """
    names = list(dict.fromkeys(names))  # a repeated name is read once
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        at = _column_positions(path, reader, names)

        def rows():
            for rownum, row in enumerate(reader, start=2):
                try:
                    # float() strips whitespace as the cell check does, so the bits agree
                    vals = [float(row[j]) for j in at]
                    clean = math.isfinite(sum(vals))
                except (IndexError, ValueError):
                    clean = False
                if clean:
                    yield vals
                elif any(cell.strip() for cell in row):  # a row of blank cells is skipped
                    # cell by cell: the first bad cell raises, and finite values
                    # whose sum overflows pass
                    yield [_cell_value(path, row, rownum, j, name) for j, name in zip(at, names)]

        # the rows stream into the array, so no row's values outlive it
        table = np.fromiter(itertools.chain.from_iterable(rows()), dtype=float)
    table = table.reshape(-1, len(names))
    n = table.shape[0]
    if n < 2:
        raise DataError(f"{path}: need at least two data rows, found {n}")
    return {name: np.ascontiguousarray(table[:, j]) for j, name in enumerate(names)}


# ------------------------------------------------------------- JSON output


def _json_value(v) -> str:
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(i) for i in v) + "]"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    raise TypeError(f"cannot render {type(v).__name__} in a report")


def _render_json(pairs) -> str:
    lines = [f"  {json.dumps(k)}: {_json_value(v)}" for k, v in pairs]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def report_to_json(report: TestReport) -> str:
    """Serialize a TestReport as monotest/1: the schema, then every field but critical_values."""
    fields = [f.name for f in dataclasses.fields(report) if f.name != "critical_values"]
    return _render_json([("schema", "monotest/1"), *((k, getattr(report, k)) for k in fields)])


def _write_out(out: str, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(exc: BaseException) -> None:
    sys.stderr.write(
        _render_json(
            [
                ("schema", "monotest/error1"),
                ("error", type(exc).__name__),
                ("message", str(exc)),
            ]
        )
    )


# --------------------------------------------------------- model dispatch


def _split(opt: str) -> list[str]:
    return [s.strip() for s in opt.split(",") if s.strip()] if opt else []


def _number_list(opt: str, flag: str, kind=float) -> list:
    try:
        vals = [kind(s) for s in _split(opt)]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise DataError(f"--{flag}: could not parse {opt!r} as comma-separated {what}") from None
    if not vals:
        raise DataError(f"--{flag}: empty list")
    return vals


def _quantile(col: list, q: float) -> float:
    """The q-quantile of a sorted list by np.quantile's linear rule, with its rounding."""
    v = (len(col) - 1) * q
    j = min(int(v), len(col) - 2)
    a, b, t = col[j], col[j + 1], v - j
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def _z_grid(z: np.ndarray, cells: int) -> list[tuple[float, ...]]:
    # one location per quantile cell midpoint, crossed over z dimensions
    # (np.quantile itself would import numpy.ma)
    if cells < 1:
        raise DataError("--z-cells must be >= 1")
    levels = [(2 * i + 1) / (2 * cells) for i in range(cells)]
    per_dim = [[_quantile(col, q) for q in levels] for col in np.sort(z, axis=0).T.tolist()]
    return list(itertools.product(*per_dim))


def _z_bandwidths(z: np.ndarray, cells: int, override: str) -> list[float]:
    if override:
        return _number_list(override, "z-bw")
    spread = max(float(np.ptp(z[:, j])) for j in range(z.shape[1]))
    if spread <= 0:
        raise DataError("z columns are constant; cannot pick a z-cell bandwidth")
    return [spread / cells]


def _prepare_case(args):
    """Check the flags, load and adjust the data, build the scale set and estimate sigma."""
    z_cols, u_cols = _split(args.z_cols), _split(args.u_cols)
    model = args.model
    warnings: tuple[str, ...] = ()

    opts, sigma_opts = {}, {}  # the option flags that were given, by keyword
    families = (
        ("model", model, MODEL_FLAGS, opts),
        ("sigma method", args.sigma, SIGMA_FLAGS, sigma_opts),
    )
    for what, choice, table, given in families:
        for flag in dict.fromkeys(itertools.chain(*table.values())):
            key = flag[2:].replace("-", "_")
            value = getattr(args, key)
            if value in (None, ""):
                if flag in table[choice] and flag in COLUMN_FLAGS:
                    raise DataError(f"{what} {choice!r} needs {flag}")
            elif flag not in table[choice]:
                raise DataError(f"{what} {choice!r} does not read {flag}")
            elif flag not in COLUMN_FLAGS:
                given[table[choice][flag] if table is SIGMA_FLAGS else key] = value

    names = [args.x_col, args.y_col] + z_cols + u_cols + ([args.d_col] if args.d_col else [])
    cols = load_columns(args.data, names)
    x, y = cols[args.x_col], cols[args.y_col]
    z = np.column_stack([cols[c] for c in z_cols]) if z_cols else None

    base = Sample(x, y, z=z)  # simple and nonparametric-z test the sample as read
    # looked up at call time: bench/trace_child.py wraps partial_linear_adjust under this name
    if model == "partial-linear":
        base = partial_linear_adjust(base, **opts)
    elif model == "additive":
        base = additive_adjust(base, **opts)
    elif model == "endogenous":
        base = endogenous_adjust(Sample(x, y, z=np.column_stack([cols[c] for c in u_cols])), **opts)
    elif model == "selection":
        base, warnings = selection_adjust(base, cols[args.d_col], **opts)

    kernel = KERNELS[args.kernel]
    if args.h_set:
        set_ = build_custom_set(
            _distinct(base.x), _number_list(args.h_set, "h-set"), k=args.k, kernel=kernel
        )
    else:
        set_ = build_basic_set(base.x, k=args.k, kernel=kernel)
    if model == "nonparametric-z":
        cells = opts.get("z_cells", Z_CELLS)
        set_ = build_z_local_set(
            set_, _z_grid(base.z, cells), _z_bandwidths(base.z, cells, opts.get("z_bw"))
        )
    sig = estimate_sigma(base, args.sigma, **sigma_opts)
    return base, sig, set_, warnings


# ------------------------------------------------------------- subcommands


def _cmd_test(args) -> int:
    base, sig, set_, warnings = _prepare_case(args)
    cfg = BootConfig(
        alpha=args.alpha, gamma=args.gamma, B=args.boot, seed=args.seed, method=args.cv
    )
    report = run_report(base, sig, set_, cfg, model=args.model, warnings=warnings)
    _write_out(args.out, report_to_json(report))
    return 0


def _cmd_diag(args) -> int:
    base, sig, set_, _ = _prepare_case(args)
    a_n = evaluate_field(base, set_, sig).A_n
    cells = [] if set_.z_loc is None else [set_.z_loc, set_.z_bw]
    scales = np.column_stack([set_.x, set_.h, *cells]).tolist()
    pairs = [
        ("schema", "monotest/diag1"),
        ("n", base.n),
        ("p_scales", set_.p),
        ("kernel", set_.kernel.name),
        ("k", set_.k),
        ("bandwidths", _distinct(set_.h)[::-1].tolist()),
        ("A_n", a_n),
        ("sigma_method", sig.method),
        ("model", args.model),
        ("scales", scales),
    ]
    _write_out(args.out, _render_json(pairs))
    return 0


def _cmd_mc(args) -> int:
    noises = NOISES if args.noise == "both" else (args.noise,)
    designs = [
        McDesign(case, n, noise)
        for noise in noises
        for case in _number_list(args.cases, "cases", int)
        for n in _number_list(args.sizes, "sizes", int)
    ]
    results = run_mc(
        designs,
        _split(args.sigma) or ["rice"],
        tuple(_split(args.cv)) or CV_METHODS,
        reps=args.reps,
        B=args.boot,
        alpha=args.alpha,
        gamma=args.gamma,
        seed=args.seed,
        parallelism=args.threads,
    )
    text = results_to_csv(results) if args.format == "csv" else results_to_text(results)
    _write_out(args.out, text)
    return 0


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise DataError; its subcommands inherit it."""

    def error(self, message):
        raise DataError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monotest",
        description="Adaptive kernel-weighted monotonicity tests with bootstrap critical values.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("data", help="CSV file with a header row")
    data.add_argument("--x-col", default="x", help="regressor column (default: x)")
    data.add_argument("--y-col", default="y", help="response column (default: y)")
    data.add_argument("--z-cols", default="", help="comma-separated control columns")
    data.add_argument(
        "--u-cols", default="", help="comma-separated exogenous columns (endogenous model)"
    )
    data.add_argument("--d-col", default="", help="selection indicator column (selection model)")
    data.add_argument("--model", default="simple", choices=tuple(MODEL_FLAGS))
    data.add_argument("--k", type=float, default=0.0, help="distance exponent in the pair weights")
    data.add_argument("--kernel", default="epanechnikov", choices=sorted(KERNELS))
    data.add_argument(
        "--h-set", default="", help="comma-separated bandwidths replacing the automatic grid"
    )
    data.add_argument("--sigma", default="rice", choices=tuple(SIGMA_FLAGS))
    data.add_argument("--sigma-bn", type=float, help="window width for local-rice")
    data.add_argument("--sigma-degree", type=int, help="fit degree for residual / two-step-poly")
    data.add_argument("--L", type=int, help="Chebyshev degree per block of the correction fit")
    data.add_argument("--first-stage-degree", type=int, help="first-stage series degree")
    data.add_argument("--pscore-degree", type=int, help="propensity series degree")
    data.add_argument(
        "--z-cells", type=int, help=f"quantile cells per z dimension (default: {Z_CELLS})"
    )
    data.add_argument(
        "--z-bw", default="", help="comma-separated z-cell bandwidths (nonparametric-z)"
    )
    data.add_argument("--out", default="", help="output path (default: stdout)")

    boot = argparse.ArgumentParser(add_help=False)
    boot.add_argument("--alpha", type=float, default=0.1, help="test level")
    boot.add_argument("--gamma", type=float, default=0.01, help="selection level")
    boot.add_argument("--boot", type=int, default=500, help="bootstrap draws")
    boot.add_argument("--seed", type=int, default=0)

    p_test = sub.add_parser(
        "test", parents=[data, boot], help="run the monotonicity test on a CSV file"
    )
    p_test.add_argument("--cv", default="sd", choices=CV_METHODS, help="critical-value method")
    p_test.set_defaults(func=_cmd_test)

    p_diag = sub.add_parser(
        "diag", parents=[data], help="print the scale set and the sensitivity diagnostic A_n"
    )
    p_diag.set_defaults(func=_cmd_diag)

    p_mc = sub.add_parser("mc", parents=[boot], help="Monte Carlo size and power study")
    p_mc.add_argument("--cases", default="1,2,3,4", help="comma-separated design cases")
    p_mc.add_argument("--sizes", default="100,200,500", help="comma-separated sample sizes")
    p_mc.add_argument("--noise", default="normal", choices=(*NOISES, "both"))
    p_mc.add_argument("--sigma", default="rice", help="comma-separated sigma methods")
    p_mc.add_argument(
        "--cv", default=",".join(CV_METHODS), help="comma-separated critical-value methods"
    )
    p_mc.add_argument("--reps", type=int, default=1000)
    p_mc.add_argument(
        "--threads", type=int, default=1, help="worker processes, at most --reps and the CPU count"
    )
    p_mc.add_argument("--format", default="csv", choices=("csv", "text"))
    p_mc.add_argument("--out", default="", help="output path (default: stdout)")
    p_mc.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DegenerateVarianceError as exc:
        _emit_error(exc)
        return 3
    except (DataError, ValueError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
