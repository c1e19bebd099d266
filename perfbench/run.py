"""hlawka benchmark: closed loop, one client, oracle-checked CLI jobs.

    python3 perfbench/run.py --workload direct-sums --seed 1 --seconds 20 --trace 0

Run from the repository root (``src/hlawka`` must be there).  The process
imports ``hlawka`` from ``src``, sets up (parses the seed's shape pool and
runs one small warm-up job per kind), then calls ``hlawka.cli.main(argv)``
in-process for one job after another, each writing its ``--out`` file under
``.perfbench_out/``: a fixed job list sized to last about ``--seconds`` on
the reference machine, run twice.  Outputs are checked against oracles after the timed
loop.  ``--trace 1`` runs a fixed number of decks instead, each job once
plain and once traced, and prints the per-layer metrics.  See README.md
next to this file.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5  # this process plus four child processes
CALIBRATION_S = 0.045  # calibrate() on the quiet reference machine
PASSES = 2  # every timed job runs this many times; its fastest pass counts
SPEEDUP_JOB = ["zeta", "--shape", "ellipse:a=2.0,b=1.0,phi=0.7", "--s=1.5+2.0i",
               "--method", "direct", "--radius", "1200.0"]


class Stopwatch:
    """Wall time less the time the host gave this VM's CPUs to others: the
    smaller of wall time and this process's CPU time.  CPU time leaves out
    the hypervisor's steal, which comes in bursts of tens of milliseconds.
    A job keeps at least one thread on a CPU from start to end, so neither
    figure falls below its steal-free wall time, and a single-threaded job
    gets exactly that; a job that runs two threads at once gets its wall
    time."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def seconds(self) -> float:
        return min(time.perf_counter() - self.wall, time.process_time() - self.cpu)


@dataclass
class Outcome:
    rc: int
    seconds: float
    digest: str  # of the output bytes, which stay in the file ``out``
    warnings: int
    stderr: str
    out: Path

    def text(self) -> str:
        return self.out.read_text()


def run_job(cli, argv: list[str], out: Path) -> Outcome:
    """One closed-loop call: time ``cli.main`` only; record warnings and
    stderr.  The output stays in ``out``; only its digest is kept."""
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        watch = Stopwatch()
        try:
            rc = cli.main(argv + ["--out", str(out)])
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = watch.seconds()
    digest = hashlib.sha256(out.read_bytes() if rc == 0 and out.exists() else b"").hexdigest()
    n_warn = sum(1 for w in caught if issubclass(w.category, UserWarning))
    return Outcome(rc, seconds, digest, n_warn, err.getvalue(), out)


def calibrate() -> float:
    """Time of a fixed kernel that never calls hlawka, run in this process
    so that it shares the jobs' CPU: a complex power sum over a 1001 x 300
    grid, in slabs of 20 rows so its arrays stay below 0.5 MB and out of
    ``peak_rss_mb``, then the same kind of sum in plain Python with a few
    continued-fraction steps per point, as a scalar special function takes.
    The two halves cost about the same; the lattice workloads run the first
    kind of code, the continuations the second."""
    import numpy as np
    watch = Stopwatch()
    g = np.arange(-500, 501, dtype=float)
    acc = 0.0j
    for lo in range(1, 301, 20):
        r = np.hypot(g[None, :], np.arange(lo, lo + 20, dtype=float)[:, None]).ravel()
        acc += np.sum(np.exp(-(1.5 + 2j) * np.log(r)))
    s = 0.7 + 5.0j
    for m in range(-60, 61):
        for n in range(-12, 13):
            q = math.pi * (1.3 * m * m + 0.4 * m * n + 0.9 * n * n) + 0.5
            d = 1.0 / (q + 1.0 - s)
            c, h = 1e300, d
            for k in range(1, 8):
                an, b = -k * (k - s), q + 2 * k + 1 - s
                d = 1.0 / (an * d + b)
                c = b + an / c
                h *= d * c
            acc += cmath.exp(-s * math.log(q)) * h
    return watch.seconds()


def with_threads(argv: list[str], threads: str) -> list[str]:
    out = list(argv)
    out[out.index("--threads") + 1] = threads
    return out


def setup(name: str, seed: int, out: Path):
    """Import hlawka, parse the shape pool, run the warm-ups; returns the
    workload and the seconds spent on those three steps.  hlawka is imported
    first, so its import pays for numpy as a user's would."""
    watch = Stopwatch()
    import hlawka  # noqa: F401
    from hlawka import cli, shapes
    t_import = watch.seconds()

    import jobs
    import oracles
    if name not in jobs.WORKLOADS:
        raise LookupError(f"unknown workload {name!r}; one of {sorted(jobs.WORKLOADS)}")
    workload = jobs.WORKLOADS[name](seed, oracles.Refs())
    watch = Stopwatch()
    for spec in workload.shapes():
        shapes.parse_shape(spec)
    for job in workload.warmup():
        run_job(cli, job.argv, out)
    return workload, cli, t_import + watch.seconds()


def host_after_setup() -> float:
    """Median of five calibrate() runs, taken in the process that just set
    up, to scale its set-up time: the host's speed drifts between the set-up
    samples, which run in separate processes over half a minute."""
    return statistics.median(calibrate() for _ in range(5))


def child_setups(args) -> list[tuple[float, float]]:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["host"]))
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Per-job verdicts: oracle checks, determinism, warnings."""

    def __init__(self):
        self.rows = []  # (job, outcome)
        self.failed: dict[str, str] = {}
        self.violations = 0
        self.with_bar = 0
        self._by_id: dict[str, Outcome] = {}

    def add(self, job, outcome: Outcome):
        self.rows.append((job, outcome))
        self._by_id[job.id] = outcome

    def outcome(self, job) -> Outcome:
        return self._by_id[job.id]

    def fail(self, job, why: str):
        self.failed.setdefault(job.id, f"{job.kind} {why}")

    def check_all(self):
        import jobs
        for job, res in self.rows:
            if res.rc != 0:
                self.fail(job, f"exit {res.rc}: {res.stderr.strip()[-200:]}")
                continue
            try:
                ok, violated, detail = jobs.check(job, res.text())
            except (ValueError, KeyError, TypeError) as exc:
                self.fail(job, f"unreadable output: {type(exc).__name__}: {exc}")
                continue
            if violated is not None:
                self.with_bar += 1
                self.violations += int(violated)
            if not ok:
                self.fail(job, f"oracle miss: {detail}")
        # The oracle of a truncated kind is the infinite sum, so it admits
        # the job's own error bar; the smallest-radius job of each kind and
        # shape family is also held to the same truncated sum by numpy.
        smallest = {}
        for job, res in self.rows:
            if job.disc_sum is not None and res.rc == 0:
                key = (job.kind, job.tags.get("family"))
                if key not in smallest or job.tags["radius"] < smallest[key][0].tags["radius"]:
                    smallest[key] = (job, res)
        for job, res in smallest.values():
            ok, detail = jobs.check_disc(job, res.text())
            if not ok:
                self.fail(job, f"truncated sum differs from numpy: {detail}")

    def determinism(self, cli, out: Path, digest_file: Path):
        """Rerun the cheapest job of each lattice kind with --threads 1;
        compare every output with stored digests of earlier runs."""
        cheapest = {}
        for job, res in self.rows:
            if job.lattice and res.rc == 0 and (
                    job.kind not in cheapest or res.seconds < cheapest[job.kind][1].seconds):
                cheapest[job.kind] = (job, res)
        for job, res in cheapest.values():
            one = run_job(cli, with_threads(job.argv, "1"), out)
            if one.digest != res.digest:
                self.fail(job, "--threads 1 output differs from --threads 2")
        # keyed by argv, so a changed job generator never compares unlike jobs
        digests = {" ".join(job.argv): (job, res.digest) for job, res in self.rows if res.rc == 0}
        earlier = json.loads(digest_file.read_text()) if digest_file.exists() else {}
        for key, (job, d) in digests.items():
            if earlier.get(key, d) != d:
                self.fail(job, "output differs from an earlier run with this seed")
        earlier.update({key: d for key, (_, d) in digests.items()})
        digest_file.write_text(json.dumps(earlier, sort_keys=True))

    def summary(self):
        attempted = len(self.rows)
        failed = len(self.failed)
        return attempted, failed, self.violations / self.with_bar if self.with_bar else 0.0

    def explain(self) -> dict[str, str | None]:
        """Each failure's known defect, or None where no signature covers it."""
        import jobs
        by_id = {job.id: job for job, _ in self.rows}
        return {jid: jobs.known_defect(by_id[jid], why) for jid, why in self.failed.items()}


def percentile(xs, q):
    import numpy as np
    return float(np.percentile(np.asarray(xs), q))


def untraced(args, workload, cli, out: Path, job_dir: Path, setup: tuple[float, float]):
    """Run the seed's decks PASSES times over; each job's time (Stopwatch)
    is its faster pass, scaled by the host speed that calibrate() measured
    before every deck.  Other tenants of a shared host slow the CPU in
    spells of seconds to minutes: a short spell rarely covers both passes of
    a job, which run about half a run apart, and the calibration kernel sees
    the long ones (README.md).  First-pass outputs stay in ``job_dir`` for
    the checks."""
    n_decks = max(1, math.ceil(args.seconds / (PASSES * workload.deck_seconds)))
    decks = [workload.deck() for _ in range(n_decks)]
    ledger = Ledger()
    best: dict[str, float] = {}
    host: list[float] = []  # calibrate() before every deck of every pass
    begin = time.perf_counter()
    for rep in range(PASSES):
        for deck in decks:
            host.append(calibrate())
            for job in deck:
                if rep == 0:
                    res = run_job(cli, job.argv, job_dir / f"{job.id}.out")
                    ledger.add(job, res)
                else:
                    res = run_job(cli, job.argv, out)
                    if res.digest != ledger.outcome(job).digest:
                        ledger.fail(job, "second pass output differs")
                best[job.id] = min(best.get(job.id, math.inf), res.seconds)
    wall = time.perf_counter() - begin
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.check_all()
    digest_file = OUT_DIR / f"digests-{args.workload}-{args.seed}-{source_digest()}.json"
    ledger.determinism(cli, out, digest_file)
    samples = [setup] + child_setups(args)  # (seconds, host) each
    attempted, failed, viol = ledger.summary()
    # < 1 while the host runs slow; times are scaled to the quiet host
    speed = CALIBRATION_S / statistics.median(host)
    times = list(best.values())
    metrics = {
        "jobs_per_s": ((attempted - failed) / (sum(times) * speed), "1/s"),
        "job_s.p50": (percentile(times, 50) * speed, "s"),
        "job_s.p90": (percentile(times, 90) * speed, "s"),
        "setup_s": (statistics.median(t * CALIBRATION_S / h for t, h in samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "passed_frac": ((attempted - failed) / attempted, "ratio"),
    }
    extra = {
        "samples": (attempted, "jobs"),
        "failed_frac": (failed / attempted, "ratio"),
        "bound_violations_frac": (viol, "ratio"),
        "warnings.count": (sum(res.warnings for _, res in ledger.rows), "count"),
        "run_wall_s": (wall, "s"),
        "host_speed": (speed, "x"),
        "jobs_per_s.raw": ((attempted - failed) / sum(times), "1/s"),
        "job_s.p50.raw": (percentile(times, 50), "s"),
        "job_s.p90.raw": (percentile(times, 90), "s"),
        "setup_s.raw": (statistics.median(t for t, _ in samples), "s"),
    }
    return ledger, metrics, extra


def claimed_rel_p50(ledger) -> float | None:
    """Median error_estimate / |value| of the truncated jobs whose value does
    not vanish: a looser error bar shows here even where values agree."""
    rel = []
    for job, res in ledger.rows:
        if job.disc_sum is not None and res.rc == 0 and job.tags.get("family") != "vanishing":
            data = json.loads(res.text())
            rel.append(data["error_estimate"] / abs(complex(data["value"]["re"], data["value"]["im"])))
    return statistics.median(rel) if rel else None


def traced(args, workload, cli, out: Path, job_dir: Path):
    import jobs
    import oracles
    import tracer as tr

    t = tr.Tracer()
    # setup, traced, for shapes.build_s
    t.job = "setup"
    t.install()
    from hlawka import shapes
    for spec in workload.shapes():
        shapes.parse_shape(spec)
    t.uninstall()
    build_s = tr.build_seconds(t.spans)
    t.spans.clear()

    todo = [job for _ in range(workload.trace_decks) for job in workload.deck()]
    refs = workload.refs
    for name, other in jobs.WORKLOADS.items():  # every layer is measured in every workload
        for job in other(0, refs).warmup():
            job.id = f"probe-{name}-{job.id}"
            todo.append(job)
    ledger = Ledger()
    plain_s = traced_s = 0.0
    for job in todo:
        plain = run_job(cli, job.argv, out)
        t.job = job.id
        t.install()
        try:
            res = run_job(cli, job.argv, job_dir / f"{job.id}.out")
        finally:
            t.uninstall()
        ledger.add(job, res)
        plain_s += plain.seconds
        traced_s += res.seconds
        if plain.digest != res.digest:
            ledger.fail(job, "output differs between two runs")
    ledger.check_all()
    attempted, failed, viol = ledger.summary()

    speed = {"1": math.inf, "2": math.inf}  # fastest of three alternating runs each
    for threads in ("1", "2") * 3:
        speed[threads] = min(speed[threads], run_job(cli, SPEEDUP_JOB + ["--threads", threads], out).seconds)
    metrics = tr.layer_metrics(t.spans, oracles.disc_count)
    metrics.update({
        "shapes.build_s": build_s or None,
        "lattice.speedup_2t": speed["1"] / speed["2"],
        "zeta.truncated.claimed_rel.p50": claimed_rel_p50(ledger),
        "warnings.count": sum(res.warnings for _, res in ledger.rows),
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
        "failed_frac": failed / attempted,
        "bound_violations_frac": viol,
    })
    t.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    return ledger, metrics, t.missing


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not (SRC / "hlawka" / "__init__.py").is_file():
        print(f"error: {SRC / 'hlawka'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"job-{os.getpid()}.out"
    job_dir = OUT_DIR / f"jobs-{os.getpid()}"
    job_dir.mkdir()
    absent: list[str] = []
    try:
        try:
            workload, cli, setup_s = setup(args.workload, args.seed, out)
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "host": host_after_setup()}))
            return 0
        if args.trace:
            ledger, values, missing = traced(args, workload, cli, out, job_dir)
            units = declared("per_layer")
            # a metric whose spans are gone (a renamed or removed function)
            # is left out of the result, never reported as 0
            absent = [k for k in units if values.get(k) is None]
            metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k not in absent}
            for k in sorted(set(missing)):
                print(f"missing traced name: {k}", file=sys.stderr)
            rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
        else:
            ledger, values, extra = untraced(args, workload, cli, out, job_dir, (setup_s, host_after_setup()))
            units = declared("end_to_end")
            metrics = {k: {"value": values[k][0], "unit": u} for k, u in units.items()}
            rows = [(k, v, u) for k, (v, u) in {**values, **extra}.items()]
        defects = ledger.explain()
    finally:
        out.unlink(missing_ok=True)
        shutil.rmtree(job_dir, ignore_errors=True)
    attempted, failed, _ = ledger.summary()
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, one client, {attempted} jobs")
    for k, v, u in rows:
        print(f"{k:32s} {v:.6g} {u}")
    for k in absent:
        print(f"ABSENT {k}: a layer function it needs left no spans")
    for jid, why in sorted(ledger.failed.items()):
        print(f"FAILED {jid} [{defects[jid] or 'UNEXPLAINED'}]: {why}")
    print(json.dumps({"correct": None not in defects.values(), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
