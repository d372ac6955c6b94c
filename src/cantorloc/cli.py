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
enumeration, the rows of an `eigs` table (whether --kmax is given or auto),
the live (range, block) pairs of a norm's walk, and the digits of each
alphabet that the reverse and indexed-decay sweeps build from a size.  A
sweep certifies every depth or exits 3 with no row.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import math
import sys

from . import __version__
from .cantor import (
    CantorSpec,
    CapExceededError,
    IndexedCantorSpec,
    _levels_of,
    cantor_function,
    level_product,
    resolve_max_intervals,
)
from .operator import (
    TAIL_ABSOLUTE,
    TAIL_RELATIVE,
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


def _json_value(v, out: list) -> None:
    # hand-rolled so key order and float formatting never drift between
    # interpreter versions; finite floats carry _cell's 17 significant digits
    if v is None:
        out.append("null")
    elif isinstance(v, dict):
        out.append("{")
        for i, key in enumerate(sorted(v)):
            if i:
                out.append(", ")
            _json_value(str(key), out)
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
    elif isinstance(v, (bool, int)) or (isinstance(v, float) and math.isfinite(v)):
        out.append(_cell(v))
    elif isinstance(v, (str, float)):
        # Imported here, so that CSV output never loads json.
        import json
        out.append(json.dumps(v, ensure_ascii=False))
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


def _metadata(spec=None, schedule=None, gamma=None, h_equivalent=None, seed=0,
              tol=None, extra=None) -> dict:
    # Only verify and the indexed-decay sweep read a seed, and only verify a
    # tolerance; the other commands record these defaults.
    md = {
        "cap": resolve_max_intervals(),
        "gamma": gamma,
        "h_equivalent": h_equivalent,
        "schedule": schedule,
        "seed": seed,
        "spec": None if spec is None else _spec_info(spec),
        "tolerances": {"tail_absolute": TAIL_ABSOLUTE,
                       "tail_relative": TAIL_RELATIVE,
                       "tol_override": tol},
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
        # the precise sweep refuses --levels-file; eigs and norm read it
        raise ValueError("--base and --alphabet are required" + (
            "" if args.command == "sweep" else " (or pass --levels-file)"))
    return CantorSpec(args.base, args.alphabet)


def _h_equivalent(bases) -> float:
    """1 / (M_1 ... M_n) for level bases M_j, correctly rounded by int
    division also below the normal range, and 0.0 where it underflows: past
    2^1075 it rounds to 0.0, so the product is taken no further."""
    return 1 / level_product(bases, 2 ** 1075)


def _spec_bases(spec, n: int) -> list[int]:
    return [lv.base for lv in _levels_of(spec, n)]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_eigs(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    problem = localization_problem(spec, args.iterate, args.rho)
    if args.kmax == "auto":
        k_hi = operator_norm(problem).k_truncation
    else:
        k_hi = args.kmax
    table = eigenvalue_table(problem, k_hi)
    rows = [(r.k, r.value, r.err) for r in table]
    md = _metadata(spec=spec, h_equivalent=_h_equivalent(_spec_bases(spec, args.iterate)),
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
    md = _metadata(spec=spec, h_equivalent=_h_equivalent(_spec_bases(spec, args.iterate)),
                   extra={"iterate": args.iterate, "rho": args.rho})
    _emit(_table(args, columns, rows, md), args.out)
    return 0


def cmd_cantor_fn(args: argparse.Namespace) -> int:
    spec = CantorSpec(args.base, args.alphabet)
    value = cantor_function(spec, args.iterate, args.x)
    md = _metadata(spec=spec, h_equivalent=_h_equivalent(_spec_bases(spec, args.iterate)),
                   extra={"iterate": args.iterate})
    _emit(_table(args, ("x", "value"), [(args.x, value)], md), args.out)
    return 0


# The flags each sweep experiment reads, by dest, with their defaults (None:
# no default); cmd_sweep refuses every other sweep flag.
SWEEP_FLAGS = {
    "precise": {"base": None, "alphabet": None, "nmax": 8, "gamma": 1.0},
    "reverse": {"base": 3, "size": 2, "nmax": 10, "gamma": 1.0},
    "indexed-decay": {"base": 3, "nmax": 20, "delta": 0.5, "epsilon": 2 / 3, "gamma": 1.0,
                      "seed": 0},
    "indexed-counterexample": {"base": 4, "size": 2, "nmax": 5, "gamma": 1.0},
    "positive-measure": {"levels_file": None, "levels": 12, "rho": 1.0},
}


def cmd_sweep(args: argparse.Namespace) -> int:
    # Imported here: no other subcommand runs the experiments.
    from .experiments import (
        SweepRow,
        positive_measure_demo,
        sweep_fixed,
        sweep_indexed_counterexample,
        sweep_indexed_decay,
        sweep_reverse_counterexample,
    )

    exp = args.experiment
    reads = SWEEP_FLAGS[exp]
    refused = sorted("--" + dest.replace("_", "-")
                     for dest in set().union(*SWEEP_FLAGS.values()) - reads.keys()
                     if getattr(args, dest) is not None)
    if refused:
        raise ValueError(f"{exp} sweeps do not read {', '.join(refused)}")
    # Asked before the defaults fill in --levels, which positive-measure reads.
    if args.levels_file is not None and args.levels is not None:
        raise ValueError("--levels-file excludes --levels")
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    gamma, n_max = args.gamma, args.nmax

    if exp == "precise":
        spec = _spec_from(args)
        rows = sweep_fixed(spec, n_max, gamma)
        columns = SweepRow._fields
        md = _metadata(spec=spec, schedule="power_half", gamma=gamma,
                       h_equivalent=_h_equivalent(_spec_bases(spec, n_max)))

    elif exp == "reverse":
        rows = sweep_reverse_counterexample(args.base, args.size, n_max, gamma)
        columns = ("n", "ratio")
        md = _metadata(schedule="power_half", gamma=gamma,
                       h_equivalent=_h_equivalent([args.base] * n_max),
                       extra={"params": {"base": args.base, "size": args.size}})

    elif exp == "indexed-decay":
        result = sweep_indexed_decay(M=args.base, delta=args.delta, epsilon=args.epsilon,
                                     gamma=gamma, n_max=n_max, seed=args.seed)
        rows = result.rows
        columns = ("n", "lambda0", "fitted_beta")
        md = _metadata(spec=result.levels, schedule="indexed_sqrt", gamma=gamma, seed=args.seed,
                       h_equivalent=_h_equivalent(_spec_bases(result.levels, n_max)),
                       extra={"fitted_beta": result.fitted_beta,
                              "params": {"M": args.base, "delta": args.delta,
                                         "epsilon": args.epsilon}})

    elif exp == "indexed-counterexample":
        result = sweep_indexed_counterexample(args.base, args.size, gamma=gamma,
                                              n_max=n_max)
        rows = result.rows
        columns = ("n", "lambda0", "lower_bound_product")
        md = _metadata(schedule="indexed_sqrt", gamma=gamma,
                       h_equivalent=_h_equivalent(result.bases),
                       extra={"lower_bound_product": result.lower_bound_product,
                              "params": {"base": args.base, "size": args.size}})

    else:  # positive-measure
        if args.levels_file:
            levels = list(parse_levels_file(args.levels_file).levels)
        else:
            levels = args.levels
        result = positive_measure_demo(levels, args.rho)
        rows = result.rows
        columns = ("n", "measure", "lambda0", "norm_lower_bound")
        md = _metadata(extra={"measure_limit_estimate": result.measure_limit_estimate,
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
        md = _metadata(seed=args.seed, tol=args.tol,
                       extra={"samples": args.samples, "suite": args.suite})
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
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer or auto, got {text!r}")


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

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="asymptotic experiment drivers")
    p_sweep.add_argument("--experiment", required=True, choices=tuple(SWEEP_FLAGS),
                         help="each reads the flags that name it below; any other exits 2")

    def sweep_flag(flag, text, **kwargs):
        dest = flag[2:].replace("-", "_")
        readers = [exp if flags[dest] is None else f"{exp} ({flags[dest]:g})"
                   for exp, flags in SWEEP_FLAGS.items() if dest in flags]
        p_sweep.add_argument(flag, help=f"{text}; read by {', '.join(readers)}", **kwargs)

    sweep_flag("--base", "base", type=int, metavar="M")
    sweep_flag("--alphabet", "digits, e.g. 0,2", type=_alphabet_flag, metavar="A")
    sweep_flag("--levels-file", "levels M;a1,a2,..., one per line", metavar="PATH")
    sweep_flag("--nmax", "last depth", type=int)
    sweep_flag("--gamma", "radius prefactor, in (0, 1] for precise and reverse "
               "(rho = gamma M^(n/2)), positive and finite for the indexed sweeps", type=float)
    sweep_flag("--size", "alphabet size", type=int)
    sweep_flag("--delta", "base spread, M_j <= M^(1+delta)", type=float)
    sweep_flag("--epsilon", "density cap, size_j/M_j <= epsilon", type=float)
    sweep_flag("--rho", "fixed radius", type=float)
    sweep_flag("--levels", "level count", type=int)
    sweep_flag("--seed", "seed of the drawn levels, recorded in metadata", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run seeded invariant suites")
    p_verify.add_argument("--suite", default="all",
                          help="one suite, or all (default)")
    p_verify.add_argument("--samples", type=int, default=300)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed of the sampled inputs, recorded in metadata")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override the epsilon tolerances of the properties")
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


def run() -> int:
    """The process entry: main() on sys.argv, then gc.freeze().

    Freezing moves every object the collector tracks, numpy's and the
    package's from import on, into the permanent generation, which the
    interpreter's full collections at shutdown skip; atexit handlers, the
    flushing of stdio and module teardown still run.  main() leaves the
    collector as it finds it, for tests and library callers.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
