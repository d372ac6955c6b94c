"""Checks of the CLI's outputs against the reference values in oracle.py.

A checker takes the stdout text of one invocation and returns a list of
Check records; the invocation passes when every record does.  Reference
values are cached per problem, so a run computes them once however many
rounds repeat the same output.

A value printed by the program may differ from the reference by the
reference's own error bound plus PROGRAM_REL of its size.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

import oracle

EPS = oracle.EPS
PROGRAM_REL = 1e-10
# How far the program's running tail P(k+1, rho) may drift from the exact
# one before a truncation index one step off the exact rule is accepted.
TRUNCATION_DRIFT = 0.01
TAIL_BOUND_REL = 1e-8


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


class OutputError(ValueError):
    """The output does not have the expected shape."""


def _rows(text: str, header: tuple) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != header:
        raise OutputError(f"header {rows[0] if rows else None!r}, want {header!r}")
    body = rows[1:]
    if any(len(r) != len(header) for r in body):
        raise OutputError("row with the wrong number of fields")
    return body


def summary(command: str, text: str) -> dict:
    """argmax_k and k_truncation of a norm, the last index of an eigenvalue
    table; kept in the run record, not checked here."""
    try:
        if command == "norm":
            row = _rows(text, NORM_HEADER)[0]
            return {"argmax_k": int(row[1]), "k_truncation": int(row[2])}
        if command == "eigs":
            return {"k_truncation": int(_rows(text, EIGS_HEADER)[-1][0])}
    except (OutputError, ValueError, IndexError):
        pass
    return {}


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _guarded(checker):
    """An output that cannot be parsed is one failed check, not a crash."""
    @functools.wraps(checker)
    def run(text: str, *args, **kwargs) -> list:
        try:
            return checker(text, *args, **kwargs)
        except (OutputError, ValueError, IndexError) as exc:
            return [Check("parse", False, f"{type(exc).__name__}: {exc}")]
    return run


@functools.lru_cache(maxsize=None)
def _blocks(base: int, alphabet: tuple, depth: int, rho: float) -> oracle.Blocks:
    return oracle.blocks(base, alphabet, depth, rho)


@functools.lru_cache(maxsize=None)
def _eig(base: int, alphabet: tuple, depth: int, rho: float, k: int) -> oracle.Eig:
    if k == 0:
        # a sum of positive terms, each within 4 ulp
        value = oracle.lambda0(_blocks(base, alphabet, depth, rho))
        return oracle.Eig(0, value, 8.0 * EPS * value)
    return oracle.eigenvalue(_blocks(base, alphabet, depth, rho), k)


def _truncation_checks(rho: float, k_trunc: int, norm: float) -> list:
    """k_trunc is the first k > rho with P(k+1, rho) below the threshold; a
    neighbour is accepted only where the exact tail is within the drift."""
    thr = oracle.tail_threshold(norm)
    exact = oracle.truncation_index(rho, norm)
    allowed = {exact}
    if exact - 1 > rho and oracle.tail_p(exact - 1, rho) < thr * (1.0 + TRUNCATION_DRIFT):
        allowed.add(exact - 1)
    if oracle.tail_p(exact, rho) > thr * (1.0 - TRUNCATION_DRIFT):
        allowed.add(exact + 1)
    return [Check("k_truncation", k_trunc in allowed,
                  f"k_truncation={k_trunc} allowed={sorted(allowed)}")]


def _upper_check(name: str, value: float, ks, ref) -> Check:
    """No reference lambda_k exceeds the printed norm beyond tolerance."""
    worst = -math.inf
    worst_k = None
    for k in ks:
        e = ref(k)
        excess = e.value - value - e.tol - PROGRAM_REL * abs(value)
        if excess > worst:
            worst, worst_k = excess, k
    return Check(name, worst <= 0.0, f"worst excess {worst:.3e} at k={worst_k}")


# ----------------------------------------------------------------------
# sweep --experiment precise
# ----------------------------------------------------------------------

SWEEP_HEADER = ("n", "rho", "norm", "lambda0_canonical", "scaled_norm",
                "thm32_ratio")
SWEEP_STRIDE = 16


@_guarded
def check_sweep(text: str, base: int, alphabet: tuple, n_max: int) -> list:
    """Norm, first eigenvalue of the canonical sibling and the two scaled
    columns of every depth of a precise sweep with gamma = 1."""
    rows = _rows(text, SWEEP_HEADER)
    out = [Check("row_count", len(rows) == n_max + 1,
                 f"{len(rows)} rows, want {n_max + 1}")]
    canonical = tuple(range(len(alphabet)))
    size = len(alphabet)
    dim = math.log(size) / math.log(base)
    for n, row in enumerate(rows):
        tag = f"n{n}"
        got_n, rho, norm, l0_can, scaled, ratio = (
            int(row[0]), float(row[1]), float(row[2]), float(row[3]),
            float(row[4]), float(row[5]))
        want_rho = float(base) ** (0.5 * n)
        out.append(Check(f"{tag}.index", got_n == n, f"n={got_n}"))
        out.append(Check(f"{tag}.rho", _close(rho, want_rho, 4 * EPS * want_rho),
                         f"rho={rho!r} want {want_rho!r}"))
        blk = _blocks(base, alphabet, n, want_rho)
        ball = -math.expm1(-blk.measure)
        out.append(Check(f"{tag}.ball_bound",
                         0.0 < norm <= ball * (1.0 + 4 * EPS),
                         f"norm={norm!r} 1-e^-measure={ball!r}"))

        def ref(k, n=n, rho=want_rho):
            return _eig(base, alphabet, n, rho, k)
        k_hi = oracle.truncation_index(want_rho, 0.0)
        ks = sorted(set(oracle.stride(k_hi, SWEEP_STRIDE))
                    | {0, int(math.floor(want_rho))})
        out.append(_upper_check(f"{tag}.norm_upper", norm, ks, ref))
        best = max((ref(k) for k in ks), key=lambda e: e.value)
        out.append(Check(f"{tag}.norm_equals_max",
                         _close(norm, best.value,
                                best.tol + PROGRAM_REL * best.value),
                         f"norm={norm!r} max ref={best.value!r} at k={best.k} "
                         f"tol={best.tol:.2e}"))
        l0 = _eig(base, canonical, n, want_rho, 0)
        out.append(Check(f"{tag}.lambda0_canonical",
                         _close(l0_can, l0.value, l0.tol + PROGRAM_REL * l0.value),
                         f"{l0_can!r} want {l0.value!r}"))
        want_scaled = norm * (base / size) ** n * want_rho ** (dim - 1.0)
        want_ratio = ((want_rho + 1.0) ** dim
                      / (float(size) ** n * -math.expm1(-want_rho * float(base) ** -n))
                      * norm)
        out.append(Check(f"{tag}.scaled_columns",
                         _close(scaled, want_scaled, 1e-12 * want_scaled)
                         and _close(ratio, want_ratio, 1e-12 * want_ratio),
                         f"scaled={scaled!r} ratio={ratio!r}"))
    return out


# ----------------------------------------------------------------------
# eigs --kmax auto
# ----------------------------------------------------------------------

EIGS_HEADER = ("k", "lambda", "err")


@_guarded
def check_eigs(text: str, base: int, alphabet: tuple, depth: int,
               rho: float) -> list:
    """Every row of an auto-truncated eigenvalue table, its sum, its end."""
    rows = _rows(text, EIGS_HEADER)
    ks = [int(r[0]) for r in rows]
    lams = [float(r[1]) for r in rows]
    errs = [float(r[2]) for r in rows]
    out = [Check("consecutive", ks == list(range(len(ks))) and bool(ks),
                 f"{len(ks)} rows")]
    if not out[0].ok:
        return out
    refs = [_eig(base, alphabet, depth, rho, k) for k in ks]
    bad = [k for k, lam, e in zip(ks, lams, refs)
           if not _close(lam, e.value, e.tol + PROGRAM_REL * abs(e.value))]
    worst = max(abs(lam - e.value) for lam, e in zip(lams, refs))
    out.append(Check("rows_match", not bad,
                     f"{len(bad)} rows off, first k={bad[:1]}, "
                     f"worst |diff|={worst:.2e}"))
    out.append(Check("rows_in_unit_interval",
                     all(0.0 <= v <= 1.0 for v in lams)
                     and all(e >= 0.0 for e in errs), ""))
    measure = _blocks(base, alphabet, depth, rho).measure
    k_last = ks[-1]
    gap = measure - math.fsum(lams)
    tail = oracle.tail_sum(k_last, rho)
    slack = math.fsum(e.tol for e in refs) + 64 * EPS * measure
    out.append(Check("sum_to_measure", -slack <= gap <= tail + slack,
                     f"measure - sum = {gap:.3e}, tail {tail:.3e}, "
                     f"slack {slack:.3e}"))
    norm = max(e.value for e in refs)
    out += _truncation_checks(rho, k_last, norm)
    return out


# ----------------------------------------------------------------------
# norm
# ----------------------------------------------------------------------

NORM_HEADER = ("value", "argmax_k", "k_truncation", "tail_bound", "value_err")
NORM_NEIGHBOURS = 5
NORM_STRIDE = 24


@_guarded
def check_norm(text: str, base: int, alphabet: tuple, depth: int,
               rho: float) -> list:
    """Value at the argmax, no larger eigenvalue nearby or on a stride, and
    the truncation certificate."""
    rows = _rows(text, NORM_HEADER)
    if len(rows) != 1:
        raise OutputError(f"{len(rows)} rows, want 1")
    value, argmax, k_trunc, tail, value_err = (
        float(rows[0][0]), int(rows[0][1]), int(rows[0][2]),
        float(rows[0][3]), float(rows[0][4]))

    def ref(k):
        return _eig(base, alphabet, depth, rho, k)
    out = [Check("argmax_in_range", 0 <= argmax <= k_trunc,
                 f"argmax_k={argmax} k_truncation={k_trunc}")]
    if not out[0].ok:
        return out
    at = ref(argmax)
    out.append(Check("value_at_argmax",
                     _close(value, at.value, at.tol + PROGRAM_REL * at.value),
                     f"value={value!r} ref={at.value!r} tol={at.tol:.2e}"))
    near = range(max(argmax - NORM_NEIGHBOURS, 0), argmax + NORM_NEIGHBOURS + 1)
    ks = sorted(set(near) | set(oracle.stride(k_trunc, NORM_STRIDE))
                | {int(math.floor(rho))})
    out.append(_upper_check("no_larger_eigenvalue", value, ks, ref))
    want_tail = oracle.tail_p(k_trunc + 1, rho)
    out.append(Check("tail_bound", _close(tail, want_tail, TAIL_BOUND_REL * want_tail),
                     f"tail_bound={tail!r} P(k_truncation+2, rho)={want_tail!r}"))
    out.append(Check("tail_below_threshold", tail < oracle.tail_threshold(value),
                     f"{tail!r}"))
    out.append(Check("value_err", math.isfinite(value_err) and value_err >= 0.0,
                     f"{value_err!r}"))
    out += _truncation_checks(rho, k_trunc, at.value)
    return out
