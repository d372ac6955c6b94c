"""Command-line driver for Cantor-set time-frequency localization runs.

Usage examples:

    cantorloc eigs --base 3 --alphabet 0,2 --iterate 4 --rho 9 --kmax auto
    cantorloc norm --base 3 --alphabet 1,2 --iterate 6 --rho 27
    cantorloc cantor-fn --base 3 --alphabet 0,2 --iterate 1 --x 0.5
    cantorloc sweep --experiment reverse --base 3 --size 2 --nmax 10
    cantorloc sweep --experiment precise --base 3 --alphabet 0,2 --format json
    cantorloc verify --suite all --seed 42

Output goes to stdout or --out as CSV (default) or JSON.  Numbers are
serialized with 17 significant digits so identical flags reproduce files
byte for byte.  Exit codes: 0 success, 1 verification failure, 2 usage or
validation error, 3 cap exceeded: one cap, set only through the
CTFL_MAX_INTERVALS environment variable, bounds the intervals of an
enumeration, the rows of an `eigs` table (whether --kmax is given or auto)
and the indices of a norm.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from . import __version__
from .cantor import (
    CantorSpec,
    CapExceededError,
    IndexedCantorSpec,
    cantor_function,
    resolve_max_intervals,
)
from .operator import (
    TAIL_ABSOLUTE,
    TAIL_RELATIVE,
    _norm_walk,
    _truncation,
    eigenvalue_table,
    localization_problem,
    operator_norm,
)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _json_string(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch in '"\\':
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _json_value(v, out: list) -> None:
    # hand-rolled so key order and float formatting never drift between
    # interpreter versions; floats carry 17 significant digits
    if v is None:
        out.append("null")
    elif isinstance(v, bool):
        out.append("true" if v else "false")
    elif isinstance(v, int):
        out.append(str(v))
    elif isinstance(v, float):
        if math.isfinite(v):
            out.append(format(v, ".17g"))
        else:
            out.append("NaN" if math.isnan(v) else
                        ("Infinity" if v > 0 else "-Infinity"))
    elif isinstance(v, str):
        out.append(_json_string(v))
    elif isinstance(v, dict):
        out.append("{")
        for i, key in enumerate(sorted(v)):
            if i:
                out.append(", ")
            out.append(_json_string(str(key)))
            out.append(": ")
            _json_value(v[key], out)
        out.append("}")
    elif isinstance(v, (list, tuple)):
        out.append("[")
        for i, item in enumerate(v):
            if i:
                out.append(", ")
            _json_value(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(v).__name__}")


def render_json(obj) -> str:
    out: list[str] = []
    _json_value(obj, out)
    out.append("\n")
    return "".join(out)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# Shared assembly
# ----------------------------------------------------------------------

def _spec_info(spec) -> dict:
    if isinstance(spec, IndexedCantorSpec):
        return {"levels": [{"alphabet": list(lv.alphabet), "base": lv.base}
                           for lv in spec.levels]}
    return {"alphabet": list(spec.alphabet), "base": spec.base}


def _metadata(args: argparse.Namespace, spec=None, schedule=None, gamma=None,
              h_equivalent=None, extra=None) -> dict:
    md = {
        "cap": resolve_max_intervals(),
        "gamma": gamma,
        "h_equivalent": h_equivalent,
        "schedule": schedule,
        "seed": args.seed,
        "spec": None if spec is None else _spec_info(spec),
        "tolerances": {"tail_absolute": TAIL_ABSOLUTE,
                       "tail_relative": TAIL_RELATIVE,
                       "tol_override": args.tol},
        "version": __version__,
    }
    if extra:
        md.update(extra)
    return md


def _table(args: argparse.Namespace, columns, rows, metadata) -> str:
    if args.fmt == "csv":
        return render_csv(columns, rows)
    return render_json({"columns": list(columns),
                        "metadata": metadata,
                        "rows": [list(r) for r in rows]})


def parse_levels_file(path: str) -> IndexedCantorSpec:
    """One level per line: `M;a1,a2,...`; blanks and # comments skipped."""
    levels = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            base_part, sep, alpha_part = line.partition(";")
            if not sep:
                raise ValueError(
                    f"{path}:{lineno}: expected 'M;a1,a2,...', got {line!r}")
            try:
                base = int(base_part)
                alphabet = tuple(int(tok) for tok in alpha_part.split(","))
                levels.append(CantorSpec(base, alphabet))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if not levels:
        raise ValueError(f"{path}: no levels found")
    return IndexedCantorSpec(tuple(levels))


def _spec_from(args: argparse.Namespace):
    if args.levels_file:
        if args.base is not None or args.alphabet is not None:
            raise ValueError("--levels-file excludes --base/--alphabet")
        return parse_levels_file(args.levels_file)
    if args.base is None or args.alphabet is None:
        raise ValueError("--base and --alphabet are required "
                         "(or pass --levels-file)")
    return CantorSpec(args.base, args.alphabet)


def _h_equivalent(spec, n: int) -> float:
    if isinstance(spec, IndexedCantorSpec):
        return 1.0 / float(spec.base_product(n))
    return float(spec.base) ** -n


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_eigs(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    problem = localization_problem(spec, args.iterate, args.rho)
    if args.kmax == "auto":
        # operator_norm's k_truncation, without the tail bound it reports
        k_hi = _truncation(problem.rho, _norm_walk(problem)[0].value)
    else:
        k_hi = args.kmax
    table = eigenvalue_table(problem, k_hi)
    rows = [(r.k, r.value, r.err) for r in table]
    md = _metadata(args, spec=spec,
                   h_equivalent=_h_equivalent(spec, args.iterate),
                   extra={"iterate": args.iterate, "rho": args.rho})
    _emit(_table(args, ("k", "lambda", "err"), rows, md), args.out)
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    problem = localization_problem(spec, args.iterate, args.rho)
    res = operator_norm(problem)
    columns = ("value", "argmax_k", "k_truncation", "tail_bound", "value_err")
    rows = [(res.value, res.argmax_k, res.k_truncation, res.tail_bound,
             res.value_err)]
    md = _metadata(args, spec=spec,
                   h_equivalent=_h_equivalent(spec, args.iterate),
                   extra={"iterate": args.iterate, "rho": args.rho})
    _emit(_table(args, columns, rows, md), args.out)
    return 0


def cmd_cantor_fn(args: argparse.Namespace) -> int:
    spec = CantorSpec(args.base, args.alphabet)
    value = cantor_function(spec, args.iterate, args.x)
    md = _metadata(args, spec=spec,
                   h_equivalent=_h_equivalent(spec, args.iterate),
                   extra={"iterate": args.iterate})
    _emit(_table(args, ("x", "value"), [(args.x, value)], md), args.out)
    return 0


def _default(value, default):
    """value, or default when the flag was not given; a given 0 is kept,
    so validation sees it."""
    return default if value is None else value


def _reject_fixed_spec_flags(args: argparse.Namespace, experiment: str) -> None:
    if args.alphabet is not None or args.levels_file:
        raise ValueError(f"{experiment} sweeps take --base and --size, "
                         "not --alphabet/--levels-file")


def cmd_sweep(args: argparse.Namespace) -> int:
    # Imported here: no other subcommand runs the experiments.
    from .experiments import (
        SWEEP_COLUMNS,
        DecayParams,
        RadiusSchedule,
        positive_measure_demo,
        sweep_fixed,
        sweep_indexed_counterexample,
        sweep_indexed_decay,
        sweep_reverse_counterexample,
    )

    exp = args.experiment
    gamma = args.gamma

    if exp == "precise":
        if args.levels_file:
            raise ValueError("precise sweeps take --base/--alphabet")
        spec = _spec_from(args)
        n_max = _default(args.nmax, 8)
        schedule = RadiusSchedule(gamma)
        rows = [(r.n, r.rho, r.norm, r.lambda0_canonical, r.scaled_norm,
                 r.thm32_ratio) for r in sweep_fixed(spec, schedule, n_max)]
        columns = SWEEP_COLUMNS
        md = _metadata(args, spec=spec, schedule="power_half", gamma=gamma,
                       h_equivalent=_h_equivalent(spec, n_max))

    elif exp == "reverse":
        _reject_fixed_spec_flags(args, "reverse")
        base, size = _default(args.base, 3), _default(args.size, 2)
        n_max = _default(args.nmax, 10)
        schedule = RadiusSchedule(gamma)
        rows = sweep_reverse_counterexample(base, size, schedule, n_max)
        columns = ("n", "ratio")
        md = _metadata(args, schedule="power_half", gamma=gamma,
                       h_equivalent=float(base) ** -n_max,
                       extra={"params": {"base": base, "size": size}})

    elif exp == "indexed-decay":
        _reject_fixed_spec_flags(args, "indexed-decay")
        n_max = _default(args.nmax, 20)
        params = DecayParams(M=_default(args.base, 3), delta=args.delta,
                             epsilon=args.epsilon, gamma=gamma, n_max=n_max)
        result = sweep_indexed_decay(params, seed=args.seed)
        rows = result.rows
        columns = ("n", "lambda0", "fitted_beta")
        md = _metadata(args, spec=result.levels, schedule="indexed_sqrt",
                       gamma=gamma,
                       h_equivalent=1.0 / float(result.levels.base_product(n_max)),
                       extra={"fitted_beta": result.fitted_beta,
                              "params": {"M": params.M, "delta": params.delta,
                                         "epsilon": params.epsilon}})

    elif exp == "indexed-counterexample":
        _reject_fixed_spec_flags(args, "indexed-counterexample")
        base, size = _default(args.base, 4), _default(args.size, 2)
        n_max = _default(args.nmax, 5)
        result = sweep_indexed_counterexample(base, size, gamma=gamma,
                                              n_max=n_max)
        rows = result.rows
        columns = ("n", "lambda0", "lower_bound_product")
        log_h = -math.fsum(math.log(b) for b in result.bases)
        md = _metadata(args, schedule="indexed_sqrt", gamma=gamma,
                       h_equivalent=math.exp(log_h),
                       extra={"lower_bound_product": result.lower_bound_product,
                              "params": {"base": base, "size": size}})

    else:  # positive-measure
        if args.levels_file:
            levels = list(parse_levels_file(args.levels_file).levels)
        else:
            levels = args.levels
        result = positive_measure_demo(levels, args.rho)
        rows = result.rows
        columns = ("n", "measure", "lambda0", "norm_lower_bound")
        md = _metadata(
            args, gamma=gamma,
            extra={"measure_limit_estimate": result.measure_limit_estimate,
                   "norm_lower_bound": result.norm_lower_bound,
                   "rho": result.rho})

    _emit(_table(args, columns, rows, md), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # Imported here: no other subcommand needs the suites.  An unknown
    # --suite is refused by run_suites (exit 2).
    from .verify import run_suites

    checks = run_suites(names=(args.suite,), seed=args.seed,
                        samples=args.samples, tol=args.tol)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        line = (f"{status} {c.suite}.{c.name} worst={c.worst:.3e} "
                f"tol={c.tol:.3e} samples={c.samples}")
        if c.note:
            line += f" ({c.note})"
        lines.append(line)
    n_pass = sum(c.passed for c in checks)
    lines.append(f"{n_pass}/{len(checks)} properties passed")
    sys.stdout.write("\n".join(lines) + "\n")

    if args.out is not None:
        columns = ("suite", "name", "passed", "worst", "tol", "samples", "note")
        rows = [(c.suite, c.name, c.passed, c.worst, c.tol, c.samples, c.note)
                for c in checks]
        md = _metadata(args, extra={"samples": args.samples,
                                   "suite": args.suite})
        _emit(_table(args, columns, rows, md), args.out)
    return 0 if n_pass == len(checks) else 1


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------

def _alphabet_flag(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _kmax_flag(text: str):
    if text == "auto":
        return text
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer or auto, got {text!r}")
    if k < 0:
        raise argparse.ArgumentTypeError("kmax must be nonnegative")
    return k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorloc",
        description="Eigenvalues, norms, and sweeps of the Gaussian "
                    "time-frequency localization operator on Cantor iterates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt", help="output format (default csv)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized drivers, recorded in metadata")
    common.add_argument("--tol", type=float, default=None,
                        help="override epsilon tolerances of verify properties")

    spec_flags = argparse.ArgumentParser(add_help=False)
    spec_flags.add_argument("--base", type=int, default=None, metavar="M")
    spec_flags.add_argument("--alphabet", type=_alphabet_flag, default=None,
                            metavar="A", help="comma-separated digits, e.g. 0,2")
    spec_flags.add_argument("--levels-file", default=None, metavar="PATH",
                            help="indexed spec, one level per line: M;a1,a2,...")

    p_eigs = sub.add_parser("eigs", parents=[common, spec_flags],
                            help="eigenvalue table k,lambda,err")
    p_eigs.add_argument("--iterate", type=int, required=True, metavar="N")
    p_eigs.add_argument("--rho", type=float, required=True,
                        help="pi R^2, the localization radius squared")
    p_eigs.add_argument("--kmax", type=_kmax_flag, default="auto",
                        help="last index, or auto for certified truncation")
    p_eigs.set_defaults(func=cmd_eigs)

    p_norm = sub.add_parser("norm", parents=[common, spec_flags],
                            help="certified operator norm")
    p_norm.add_argument("--iterate", type=int, required=True, metavar="N")
    p_norm.add_argument("--rho", type=float, required=True)
    p_norm.set_defaults(func=cmd_norm)

    p_fn = sub.add_parser("cantor-fn", parents=[common],
                          help="Cantor function of the n-th iterate")
    p_fn.add_argument("--base", type=int, required=True, metavar="M")
    p_fn.add_argument("--alphabet", type=_alphabet_flag, required=True,
                      metavar="A")
    p_fn.add_argument("--iterate", type=int, required=True, metavar="N")
    p_fn.add_argument("--x", type=float, required=True)
    p_fn.set_defaults(func=cmd_cantor_fn)

    p_sweep = sub.add_parser("sweep", parents=[common, spec_flags],
                             help="asymptotic experiment drivers")
    p_sweep.add_argument("--experiment", required=True,
                         choices=("precise", "reverse", "indexed-decay",
                                  "indexed-counterexample", "positive-measure"))
    p_sweep.add_argument("--nmax", type=int, default=None)
    p_sweep.add_argument("--gamma", type=float, default=1.0,
                         help="schedule prefactor, rho(n) = gamma M^(n/2)")
    p_sweep.add_argument("--size", type=int, default=None,
                         help="alphabet size for reverse/indexed experiments")
    p_sweep.add_argument("--delta", type=float, default=0.5,
                         help="indexed-decay base spread, M_j <= M^(1+delta)")
    p_sweep.add_argument("--epsilon", type=float, default=2.0 / 3.0,
                         help="indexed-decay density cap, size_j/M_j <= epsilon")
    p_sweep.add_argument("--rho", type=float, default=1.0,
                         help="fixed radius for positive-measure")
    p_sweep.add_argument("--levels", type=int, default=12,
                         help="level count for positive-measure")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run seeded invariant suites")
    p_verify.add_argument("--suite", default="all",
                          help="one suite, or all (default)")
    p_verify.add_argument("--samples", type=int, default=300)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
