"""cantorloc benchmark: CLI workloads, oracle-checked, with an optional traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is started from ./src.  A
run repeats whole rounds of the workload's CLI invocations for about S
seconds: it starts another round only while the last round's length still
fits.  Set-up probes run three times before the first round and twice after
every round.  A traced run (trace 1) runs traced rounds only, then one
untraced round with OpenBLAS's default thread count, whose wall time goes to
the run record.  After the last round every
distinct stdout is checked against bench/oracle.py; the checks import scipy
only then, so this process stays small while children run (a child's peak
RSS counts the memory of the process that started it).  The last stdout
line is one JSON object: correct, attempted, failed, and the end-to-end
metrics (trace 0) or the per-layer metrics (trace 1), each the median over
rounds.  End-to-end times are scaled to a reference machine speed
(bench/speed.py): the children and a speed monitor share one vCPU.

Raw outputs, spans and a run record go to .bench_runs/ in the checkout.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_ROUND = 2
# Hard limit on one child process; a run must end within 180 s.
CHILD_LIMIT_S = 150.0
RUN_LIMIT_S = 170.0

CRITICAL_RHO_N11 = 3.0 ** 5.5   # rho = M^(n/2) at n = 11
CRITICAL_RHO_N15 = 3.0 ** 7.5   # rho = M^(n/2) at n = 15
# Six radii evenly spread over 3^7.5 * [0.97, 1.03]; fixed, not drawn from
# the seed: the cost of one norm is chaotic in rho (see README.md).
REVERSE_RADII = tuple(CRITICAL_RHO_N15 * (0.97 + 0.012 * i) for i in range(6))


@dataclass(frozen=True)
class Invocation:
    argv: tuple       # cantorloc arguments
    check: str        # name of the checker in checks.py
    params: dict      # its keyword arguments


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    problems: tuple   # (base, alphabet, depth, rho) built by the set-up probe


def _sweep_precise() -> Workload:
    argv = ("sweep", "--experiment", "precise", "--base", "3",
            "--alphabet", "0,2", "--nmax", "16")
    params = {"base": 3, "alphabet": (0, 2), "n_max": 16}
    problems = tuple((3, (0, 2), n, 3.0 ** (0.5 * n)) for n in range(17))
    return Workload("sweep-precise", (Invocation(argv, "check_sweep", params),),
                    problems)


def _eigs_auto() -> Workload:
    rho = CRITICAL_RHO_N11
    argv = ("eigs", "--base", "3", "--alphabet", "0,2", "--iterate", "11",
            "--rho", repr(rho), "--kmax", "auto")
    params = {"base": 3, "alphabet": (0, 2), "depth": 11, "rho": rho}
    return Workload("eigs-auto", (Invocation(argv, "check_eigs", params),),
                    ((3, (0, 2), 11, rho),))


def _norm_reverse_radii() -> Workload:
    invocations = tuple(
        Invocation(("norm", "--base", "3", "--alphabet", "1,2", "--iterate", "15",
                    "--rho", repr(rho)),
                   "check_norm",
                   {"base": 3, "alphabet": (1, 2), "depth": 15, "rho": rho})
        for rho in REVERSE_RADII)
    problems = tuple((3, (1, 2), 15, rho) for rho in REVERSE_RADII)
    return Workload("norm-reverse-radii", invocations, problems)


WORKLOADS = {w.name: w for w in (_sweep_precise(), _eigs_auto(),
                                 _norm_reverse_radii())}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("cantor.iterate_s", "s"), ("cantor.iterate_calls", "count"),
    ("cantor.intervals", "count"),
    ("special.mass_s", "s"), ("special.mass_calls", "count"),
    ("special.segments", "count"), ("special.segments_per_s", "1/s"),
    ("special.tail_s", "s"),
    ("operator.norm_s", "s"), ("operator.scan_s", "s"),
    ("operator.scan_work", "count"), ("operator.scan_rate", "1/s"),
    ("operator.eigenvalue_s", "s"), ("operator.eigenvalue_calls", "count"),
    ("experiments.sweep_s", "s"), ("experiments.self_s", "s"),
    ("trace.overhead_s", "s"),
)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

@dataclass
class Child:
    code: int
    t0: float         # perf_counter at start and end
    t1: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    spans: Path | None = None  # span file of a traced invocation

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


_current: list = []  # the running child, so a termination signal can stop it


def _stop_current() -> None:
    for proc in _current:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def run_child(cmd: list, env: dict, cwd: Path, out_dir: Path,
              limit_s: float, cpus: set) -> Child:
    """Run *cmd* on *cpus* to completion; times, exit code, own peak RSS."""
    out_path, err_path = out_dir / "stdout.tmp", out_dir / "stderr.tmp"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=env, cwd=cwd,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        _current.append(proc)
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            _stop_current()
            _current.clear()
    return Child(proc.returncode, t0, t1, usage.ru_maxrss / 1024.0,
                 out_path.read_bytes(), err_path.read_bytes())


def child_env(root: Path) -> dict:
    """The CLI's environment: ./src first on the path, one BLAS thread.

    With OpenBLAS's default of one thread per core, the norm scan's dot
    products over long endpoint vectors run on both cores; on a shared
    2-core machine sweep-precise then took 6.6 s to 12.7 s from run to run
    and 2.7 times the CPU time of one thread (see README.md)."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


# ----------------------------------------------------------------------
# Per-layer aggregation of spans
# ----------------------------------------------------------------------

def layer_totals(record: dict) -> dict:
    """Sums over one traced process: per span name its total time, self time,
    call count and counts, plus the import time."""
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    acc = {"import_s": record["import_s"], "overhead_s": record["overhead_s"]}
    for s, inner in zip(spans, child_time):
        name = s["name"]
        dur = s["end"] - s["start"]
        acc[name + ".total"] = acc.get(name + ".total", 0.0) + dur
        acc[name + ".self"] = acc.get(name + ".self", 0.0) + dur - inner
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
        for key, value in s["counts"].items():
            acc[name + "." + key] = acc.get(name + "." + key, 0) + value
    return acc


def per_layer_metrics(acc: dict) -> dict:
    def g(key):
        return acc.get(key, 0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    mass_s = g("special.mass.self")
    scan_s = g("operator.norm.self")
    return {
        "cli.import_s": g("import_s"),
        "cli.self_s": g("cli.main.self"),
        "cantor.iterate_s": g("cantor.iterate.total"),
        "cantor.iterate_calls": g("cantor.iterate.calls"),
        "cantor.intervals": g("cantor.iterate.intervals"),
        "special.mass_s": mass_s,
        "special.mass_calls": g("special.mass.calls"),
        "special.segments": g("special.mass.segments"),
        "special.segments_per_s": ratio(g("special.mass.segments"), mass_s),
        "special.tail_s": g("special.tail.total"),
        "operator.norm_s": g("operator.norm.total"),
        "operator.scan_s": scan_s,
        "operator.scan_work": g("operator.norm.scan_work"),
        "operator.scan_rate": ratio(g("operator.norm.scan_work"), scan_s),
        "operator.eigenvalue_s": g("operator.eigenvalue.total"),
        "operator.eigenvalue_calls": g("operator.eigenvalue.calls"),
        "experiments.sweep_s": g("experiments.sweep.total"),
        "experiments.self_s": g("experiments.sweep.self"),
        "trace.overhead_s": g("overhead_s"),
    }


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------

@dataclass
class Run:
    workload: Workload
    seed: int
    trace: bool
    root: Path
    out_dir: Path
    env: dict
    monitor: speed.Monitor  # children run on its vCPU, except default_blas
    t_start: float = field(default_factory=time.perf_counter)
    outputs: dict = field(default_factory=dict)   # (invocation, sha256) -> stdout
    record: list = field(default_factory=list)    # one entry per invocation
    checks: dict = field(default_factory=dict)    # sha256 -> every check's result

    def limit(self) -> float:
        return max(5.0, min(CHILD_LIMIT_S,
                            RUN_LIMIT_S - (time.perf_counter() - self.t_start)))

    def setup_probe(self) -> float:
        problems = json.dumps([[b, list(a), n, rho]
                               for b, a, n, rho in self.workload.problems])
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), problems]
        child = run_child(cmd, self.env, self.root, self.out_dir, self.limit(),
                          {self.monitor.cpu})
        if child.code != 0:
            raise RuntimeError("set-up probe failed: "
                               + child.stderr.decode(errors="replace")[-500:])
        seconds, reference = map(float, child.stdout.split())
        return seconds, seconds * speed.REFERENCE_S / reference

    def invoke(self, index: int, round_no: int, traced: bool,
               default_blas: bool) -> Child:
        inv = self.workload.invocations[index]
        cmd = [sys.executable]
        spans_path = None
        if traced:
            spans_path = self.out_dir / f"spans-{len(self.record)}.json"
            spans_path.unlink(missing_ok=True)  # left by an earlier run
            trace_id = f"{self.workload.name}-seed{self.seed}-round{round_no}"
            cmd += [str(BENCH_DIR / "trace_cli.py"), str(spans_path), trace_id, "--"]
        else:
            cmd += ["-m", "cantorloc.cli"]
        env, cpus = self.env, {self.monitor.cpu}
        if default_blas:
            env = {k: v for k, v in env.items() if k != "OPENBLAS_NUM_THREADS"}
            cpus = os.sched_getaffinity(0)
        child = run_child(cmd + list(inv.argv), env, self.root, self.out_dir,
                          self.limit(), cpus)
        scale = self.monitor.scale(child.t0, child.t1)
        digest = hashlib.sha256(child.stdout).hexdigest()
        self.outputs.setdefault((index, digest), child.stdout)
        entry = {"invocation": index, "argv": list(inv.argv), "traced": traced,
                 "default_blas_threads": default_blas,
                 "round": round_no, "exit_code": child.code,
                 "wall_s": child.wall_s, "speed_scale": scale,
                 "peak_rss_mb": child.rss_mb,
                 "stdout_sha256": digest}
        if child.code != 0:
            entry["stderr_tail"] = child.stderr.decode(errors="replace")[-2000:]
        self.record.append(entry)
        child.spans = spans_path
        return child, scale

    def round(self, round_no: int, traced: bool,
              default_blas: bool = False) -> tuple:
        """One pass over the workload: (wall seconds, the same scaled to the
        reference speed, max RSS, span sums)."""
        wall, scaled, rss, acc = 0.0, 0.0, 0.0, {}
        for index in range(len(self.workload.invocations)):
            child, scale = self.invoke(index, round_no, traced, default_blas)
            wall += child.wall_s
            scaled += child.wall_s * scale
            rss = max(rss, child.rss_mb)
            if child.spans is not None and child.spans.exists():
                for key, value in layer_totals(
                        json.loads(child.spans.read_text())).items():
                    acc[key] = acc.get(key, 0) + value
        return wall, scaled, rss, acc

    def verify(self) -> int:
        """Check every distinct output; mark each invocation; count failures."""
        import checks  # scipy, loaded only once no child is running

        verdicts = {}
        for (index, digest), stdout in self.outputs.items():
            inv = self.workload.invocations[index]
            (self.out_dir / f"stdout-{digest[:16]}.csv").write_bytes(stdout)
            verdicts[index, digest] = getattr(checks, inv.check)(
                stdout.decode(errors="replace"), **inv.params)
            self.checks[digest] = [c.__dict__ for c in verdicts[index, digest]]
        failed = 0
        for entry in self.record:
            results = verdicts[entry["invocation"], entry["stdout_sha256"]]
            entry["ok"] = entry["exit_code"] == 0 and all(c.ok for c in results)
            entry["failed_checks"] = [c.__dict__ for c in results if not c.ok]
            stdout = self.outputs[entry["invocation"], entry["stdout_sha256"]]
            entry.update(checks.summary(entry["argv"][0],
                                        stdout.decode(errors="replace")))
            failed += not entry["ok"]
        return failed


def measure(run: Run, seconds: float) -> tuple:
    # Probes run before the first round and after every round, so their
    # median spans the same stretch of machine time as the rounds' median.
    probes = [run.setup_probe() for _ in range(SETUP_PROBES_FIRST)]
    walls, scaled, rsses, layers = [], [], [], []
    t0 = time.perf_counter()
    round_no = 0
    while True:
        r0 = time.perf_counter()
        wall, wall_scaled, rss, acc = run.round(round_no, traced=run.trace)
        if run.trace:
            layers.append(per_layer_metrics(acc))
        walls.append(wall)
        scaled.append(wall_scaled)
        rsses.append(rss)
        probes += [run.setup_probe() for _ in range(SETUP_PROBES_PER_ROUND)]
        round_no += 1
        now = time.perf_counter()
        if now - t0 + (now - r0) > seconds:
            break
    samples = {"setup_s": [p[1] for p in probes],
               "setup_s_raw": [p[0] for p in probes],
               "wall_s": scaled, "wall_s_raw": walls, "peak_rss_mb": rsses}
    if run.trace:
        # wall time of the same work with OpenBLAS's own thread count on
        # every vCPU, which the untraced figures leave out (see child_env)
        samples["wall_s_default_blas_raw"] = run.round(
            round_no, traced=False, default_blas=True)[0]
        samples["traced_wall_s"] = samples.pop("wall_s")
        samples["traced_wall_s_raw"] = samples.pop("wall_s_raw")
        values = {name: statistics.median(m[name] for m in layers)
                  for name, _ in PER_LAYER}
        samples["per_layer"] = layers
    else:
        values = {name: statistics.median(samples[name])
                  for name, _ in END_TO_END}
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cantorloc" / "cli.py").is_file():
        print("error: run from the root of a cantorloc checkout "
              "(src/cantorloc/cli.py not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = root / ".bench_runs" / (f"{workload.name}-seed{args.seed}"
                                      f"-trace{args.trace}")
    out_dir.mkdir(parents=True, exist_ok=True)
    monitor = speed.Monitor(min(os.sched_getaffinity(0)))
    run = Run(workload, args.seed, bool(args.trace), root, out_dir,
              child_env(root), monitor)

    def on_term(signum, frame):
        _stop_current()
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_term)

    monitor.start()
    try:
        values, samples = measure(run, args.seconds)
    finally:
        monitor.stop()
    failed = run.verify()
    units = PER_LAYER if run.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    (out_dir / "record.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "attempted": len(run.record), "failed": failed,
        "metrics": metrics, "samples": samples, "invocations": run.record,
        "checks": run.checks}, indent=1))
    for entry in run.record:
        for c in entry["failed_checks"]:
            print(f"FAILED {' '.join(entry['argv'])}: {c['name']} {c['detail']}",
                  file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(run.record),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
