"""Self-test of the output checks: perturbed outputs must be reported as failed.

    python3 bench/selftest.py

Run from the root of a source checkout.  For each workload it runs the
CLI once per invocation, requires the genuine output to pass every check,
then feeds the checker perturbed copies (an eigenvalue scaled by 1 + 1e-9,
an argmax_k moved by one, a dropped row) and requires each to fail at
least one check.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import subprocess
import sys
from pathlib import Path

import checks
import run

SCALE = 1.0 + 1e-9


def _table(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _text(rows: list) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def scale_cell(text: str, row: int, col: int, factor: float = SCALE) -> str:
    rows = _table(text)
    rows[row][col] = format(float(rows[row][col]) * factor, ".17g")
    return _text(rows)


def shift_cell(text: str, row: int, col: int, by: int) -> str:
    rows = _table(text)
    rows[row][col] = str(int(rows[row][col]) + by)
    return _text(rows)


def drop_row(text: str, row: int) -> str:
    rows = _table(text)
    del rows[row]
    return _text(rows)


def _largest_row(text: str, col: int) -> int:
    rows = _table(text)
    return max(range(1, len(rows)), key=lambda i: float(rows[i][col]))


def perturbations(command: str, text: str) -> list:
    """(label, perturbed text) pairs for one output."""
    last = len(_table(text)) - 1
    if command == "sweep":
        return [
            ("norm x(1+1e-9) at the deepest row", scale_cell(text, last, 2)),
            ("norm x(1+1e-9) at the largest row", scale_cell(text, _largest_row(text, 2), 2)),
            ("lambda0_canonical x(1+1e-9)", scale_cell(text, last, 3)),
            ("dropped first row", drop_row(text, 1)),
            ("dropped middle row", drop_row(text, last // 2)),
            ("dropped last row", drop_row(text, last)),
        ]
    if command == "eigs":
        top = _largest_row(text, 1)
        return [
            (f"lambda_{top - 1} x(1+1e-9)", scale_cell(text, top, 1)),
            (f"lambda_{last // 2 - 1} x(1+1e-9)", scale_cell(text, last // 2, 1)),
            ("dropped first row", drop_row(text, 1)),
            ("dropped middle row", drop_row(text, last // 2)),
            ("dropped last row", drop_row(text, last)),
        ]
    if command == "norm":
        return [
            ("value x(1+1e-9)", scale_cell(text, 1, 0)),
            ("argmax_k + 1", shift_cell(text, 1, 1, 1)),
            ("argmax_k - 1", shift_cell(text, 1, 1, -1)),
            ("k_truncation + 1", shift_cell(text, 1, 2, 1)),
            ("tail_bound x(1+1e-6)", scale_cell(text, 1, 3, 1.0 + 1e-6)),
            ("dropped row", drop_row(text, 1)),
        ]
    raise ValueError(command)


def main() -> int:
    root = Path.cwd()
    env = run.child_env(root)
    bad = 0
    for name in sorted(run.WORKLOADS):
        for inv in run.WORKLOADS[name].invocations:
            proc = subprocess.run([sys.executable, "-m", "cantorloc.cli", *inv.argv],
                                  capture_output=True, text=True, env=env, cwd=root,
                                  timeout=run.CHILD_LIMIT_S)
            checker = getattr(checks, inv.check)
            label = f"{name} {' '.join(inv.argv[-2:])}"
            genuine = checker(proc.stdout, **inv.params)
            ok = proc.returncode == 0 and all(c.ok for c in genuine)
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {label}: genuine output passes"
                  + ("" if ok else f" ({[c for c in genuine if not c.ok]})"))
            for what, text in perturbations(inv.argv[0], proc.stdout):
                failed = [c.name for c in checker(text, **inv.params) if not c.ok]
                bad += not failed
                print(f"{'ok ' if failed else 'BAD'} {label}: {what} -> "
                      f"{'failed ' + ', '.join(failed) if failed else 'NOT DETECTED'}")
    print(f"{'all cases behave' if not bad else f'{bad} cases misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
