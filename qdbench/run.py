"""qdonald benchmark: fixed CLI jobs, each in a fresh process, checked
against golden output hashes.

Usage (from the root of a checkout):

    python3 qdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  One job runs at a time as one
child process; the parent only waits.  ``QDONALD_THREADS`` is removed from
the child's environment.

A round runs every entry of the workload's job pool once, in an order
shuffled by the seed, so every seed measures the same work.  Between jobs
the parent times a fixed ``Fraction`` loop that does not use the program;
every time a job reports is scaled by the loop's reference time over its
time just before and just after the job, so a slow spell of a shared host
does not read as a slower program.  With
``--trace 0`` a run makes ``round(S / ref_round_s)`` rounds (at least one)
and prints the end-to-end metrics.  With ``--trace 1`` it runs one round
untraced and the same round twice traced, and prints the per-layer
metrics of the first traced round.

Every job must exit 0 with stdout whose sha256 matches ``golden.json``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
TRACE_DIR = HERE / "out"

JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0       # no job starts later than this into a run
OVERRUN = 1.25               # no round starts that would end past 1.25 * S
TAIL_BEYOND = 10             # jobs beyond the reported tail percentile
# One calibration slice (see calibration_slice) on the reference host when
# nothing else runs on its cores.  On that host the slice reads 4.1-4.6 ms
# in quiet moments and up to 9 ms when its cores are shared, and job times
# move with it.
SLICE_REF_S = 0.0045
SPEED_SLICES = 10            # slices timed between two jobs


def _series(name: str, *orders: int) -> list:
    return [["series", "--name", name, "--order", str(o), "--format", "json"]
            for o in orders]


# Every pool entry has a golden hash in golden.json (see make_golden.py).
# Why each workload was chosen: BENCHMARK.json and METRICS.md.
# ref_round_s: one round's wall time, host-speed probes included, on the
# reference host (2 vCPU, CPython 3.11) while its cores are shared; it
# fixes how many rounds fit in --seconds, so a run rarely hits OVERRUN.
WORKLOADS = {
    "forms-dense": {
        "ref_round_s": 7.0,
        "pool": (_series("Delta", 250, 400) + _series("h", 500, 700)
                 + _series("A", 1000, 1300) + _series("B", 1500, 2500)
                 + _series("fm:5", 200, 250)),
    },
    "mock-sparse": {
        "ref_round_s": 7.0,
        "pool": (_series("M", 700, 900) + _series("Qplus", 50, 60)
                 + _series("Z0", 400, 600) + _series("QtransS", 20, 25)
                 + _series("ebracket:2,1", 50, 80)),
    },
    "tables": {
        "ref_round_s": 10.0,
        "pool": [
            ["invariants", "--nf", "0", "--max-weight", "8", "--format", "json"],
            ["invariants", "--nf", "0", "--max-weight", "9", "--format", "json"],
            ["invariants", "--nf", "2", "--max-weight", "6", "--format", "json"],
            ["invariants", "--nf", "2", "--max-weight", "7", "--format", "json"],
            ["invariants", "--nf", "3", "--max-weight", "4", "--format", "json"],
            ["invariants", "--nf", "3", "--max-weight", "5", "--format", "json"],
            ["goettsche", "--max-weight", "6"],
            ["goettsche", "--max-weight", "8"],
            ["verify", "--suite", "criterion", "--max", "3"],
            ["verify", "--suite", "criterion", "--max", "4"],
            ["verify", "--suite", "identities", "--order", "30"],
            ["verify", "--suite", "identities", "--order", "40"],
            ["swcheck", "--nf", "0", "--order", "24"],
            ["swcheck", "--nf", "3", "--order", "24"],
            ["nf4", "--order", "8"],
            ["nf4", "--order", "12"],
        ],
    },
}

# End-to-end metrics, in BENCHMARK.json order: (name, unit).
END_TO_END = (("total_s", "s"), ("job_s_p50", "s"), ("job_s_tail", "s"),
              ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
WARMUP_JOB = ["hurwitz", "--max", "4"]


def job_key(argv) -> str:
    return " ".join(argv)


@dataclass
class Job:
    argv: list
    scale: float = 1.0   # SLICE_REF_S / host slice time around the job
    wall_s: float = 0.0
    setup_s: float | None = None
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int | None = None
    sha256: str = ""
    output_bytes: int = 0
    trace: dict | None = None
    error: str = ""
    totals: dict = field(default_factory=dict)

    def check(self, golden: dict) -> None:
        """Mark the job failed unless it exited 0 with the golden stdout."""
        want = golden.get(job_key(self.argv))
        if self.exit_code != 0:
            self.error = self.error or f"exit code {self.exit_code}"
        elif want is None or self.sha256 != want["sha256"]:
            self.error = "stdout differs from the golden hash"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QDONALD_THREADS", None)
    return env


def run_job(argv, traced: bool, timeout: float) -> Job:
    """Run one job as a child process; read its stdout, stderr and report."""
    job = Job(list(argv))
    report_r, report_w = os.pipe()
    cmd = [sys.executable, "-I", str(CHILD), str(report_w),
           "1" if traced else "0", *argv]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), pass_fds=(report_w,),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    os.close(report_w)
    digest, err, report = hashlib.sha256(), bytearray(), bytearray()

    def take_stdout(chunk):
        digest.update(chunk)
        job.output_bytes += len(chunk)
    sinks = {proc.stdout.fileno(): take_stdout,
             proc.stderr.fileno(): err.extend, report_r: report.extend}
    deadline = spawn_ns + int(timeout * 1e9)
    with selectors.DefaultSelector() as sel:
        for fd in sinks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = (deadline - time.monotonic_ns()) / 1e9
            if left <= 0:
                proc.kill()
                job.error = f"timed out after {timeout:.0f} s"
                break
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fd)
                    continue
                sinks[key.fd](chunk)
    # wait4 reaps the child and gives its own rusage (CPU time, peak RSS);
    # setting returncode tells Popen the child is already reaped.
    _, status, usage = os.wait4(proc.pid, 0)
    job.wall_s = (time.monotonic_ns() - spawn_ns) / 1e9
    proc.returncode = job.exit_code = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    os.close(report_r)
    job.cpu_s = usage.ru_utime + usage.ru_stime
    job.rss_mb = usage.ru_maxrss / 1024
    job.sha256 = digest.hexdigest()
    if job.exit_code != 0 and not job.error:
        last = err.decode(errors="replace").strip().splitlines()[-1:]
        job.error = f"exit code {job.exit_code}: {' '.join(last)}"
    if not job.error:
        try:
            rep = json.loads(report)
        except ValueError:
            job.error = "no report from the child"
        else:
            job.setup_s = (rep["imported_ns"] - spawn_ns) / 1e9
            job.trace = rep["trace"]
    return job


def calibration_slice() -> float:
    """Seconds taken by a fixed Fraction loop that does not use the program."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 1500):
        acc += Fraction(1, k)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median of five slices: host speed before and after a run, context."""
    return statistics.median(calibration_slice() for _ in range(5))


def host_slices() -> list:
    """SPEED_SLICES slice times, taken between two jobs.

    A job's wall and CPU time rise with the share of time a shared host's
    other tenants hold its cores, which changes over seconds to minutes.
    The mean slice time just before and just after a job tracks that share;
    SLICE_REF_S / mean rescales the job to a quiet reference host."""
    return [calibration_slice() for _ in range(SPEED_SLICES)]


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs
    beyond it, or the maximum when there are too few jobs."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_rounds(orders: list, traced: list, golden: dict, start: float,
               limit_s: float) -> list:
    """Run round r with the jobs ``orders[r]``, traced when ``traced[r]``.

    Returns [(round_wall_s, [Job])].  Each job's ``scale`` comes from the
    host slices taken right before and right after it.  No round starts that would end more than
    ``limit_s`` after ``start``.  Jobs due after the run deadline are not
    run and count as failed."""
    done = []
    for order, trace in zip(orders, traced):
        if done and time.monotonic() - start + done[-1][0] > limit_s:
            break
        t0 = time.monotonic()
        jobs = []
        before = host_slices()
        for argv in order:
            left = RUN_DEADLINE_S - (time.monotonic() - start)
            if left > 0:
                job = run_job(argv, trace, min(JOB_TIMEOUT_S, left))
                after = host_slices()
                job.scale = SLICE_REF_S / statistics.fmean(before + after)
                before = after
                job.check(golden)
            else:
                job = Job(list(argv), error="not started: run deadline")
            jobs.append(job)
        done.append((time.monotonic() - t0, jobs))
    return done


def summed_medians(jobs: list, value) -> float:
    """Sum over pool entries of the median over rounds of ``value(job)``:
    the time of one typical round."""
    by_entry = {}
    for job in jobs:
        by_entry.setdefault(job_key(job.argv), []).append(value(job))
    return sum(statistics.median(v) for v in by_entry.values())


def time_values(jobs: list, scaled: bool) -> tuple:
    """(time metrics, tail percentile) of a set of jobs, in reference-host
    seconds when ``scaled``, else as measured."""
    k = (lambda j: j.scale) if scaled else (lambda j: 1.0)
    walls = [j.wall_s * k(j) for j in jobs]
    setups = [j.setup_s * k(j) for j in jobs if j.setup_s is not None]
    tail_s, tail_pct = tail(walls)
    return {
        "total_s": summed_medians(jobs, lambda j: j.wall_s * k(j)),
        "job_s_p50": statistics.median(walls),
        "job_s_tail": tail_s,
        "cpu_s": summed_medians(jobs, lambda j: j.cpu_s * k(j)),
        "setup_s": statistics.median(setups) if setups else 0.0,
    }, tail_pct


def end_to_end(done: list) -> tuple:
    jobs = [j for _, rnd in done for j in rnd]
    values, tail_pct = time_values(jobs, scaled=True)
    values["peak_rss_mb"] = max(j.rss_mb for j in jobs)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    raw, _ = time_values(jobs, scaled=False)
    info = {"rounds": len(done), "jobs": len(jobs),
            "job_s_tail_percentile": round(tail_pct, 2),
            "host_scale_median": statistics.median(j.scale for j in jobs),
            "unscaled": raw}
    return metrics, info


def traced_round(jobs: list) -> dict:
    totals = dict.fromkeys(layers.COUNT_KEYS + layers.TIME_KEYS, 0)
    for job in jobs:
        if job.trace is not None:
            job.totals = layers.job_totals(job.trace, job.output_bytes)
            for key, value in job.totals.items():
                totals[key] += value
    return totals


def count_mismatches(first: list, second: list) -> list:
    """Jobs whose count metrics differ between two traced rounds."""
    bad = []
    for a, b in zip(first, second):
        diff = [k for k in layers.COUNT_KEYS
                if a.totals.get(k) != b.totals.get(k)]
        if diff:
            bad.append(f"{job_key(a.argv)}: {', '.join(diff)}")
    return bad


def write_spans(path: Path, jobs: list) -> None:
    """One line per span: job index, name, start, end, parent (ns, index)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for job_id, job in enumerate(jobs):
            if job.trace is None:
                continue
            names = job.trace["names"]
            for name_id, start, end, parent, _, _ in job.trace["spans"]:
                fh.write(json.dumps([job_id, names[name_id], start, end,
                                     parent]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qdonald" / "cli.py").is_file():
        sys.stderr.write(f"qdbench: no qdonald sources under {ROOT / 'src'}\n")
        return 2
    golden = json.loads(GOLDEN.read_text())
    spec = WORKLOADS[args.workload]
    pool = spec["pool"]
    missing = [job_key(a) for a in pool if job_key(a) not in golden]
    if missing:
        sys.stderr.write(f"qdbench: no golden hash for {missing}\n")
        return 2

    start = time.monotonic()
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(),
        "loadavg_before": os.getloadavg(), "calibration_s_before": calibrate(),
    }
    warmup = run_job(WARMUP_JOB, True, JOB_TIMEOUT_S)  # writes the bytecode
    if warmup.exit_code != 0:
        sys.stderr.write(f"qdbench: warm-up job failed: {warmup.error}\n")
        return 1

    rng = random.Random(args.seed)
    mismatches = []
    if args.trace:
        order = rng.sample(pool, len(pool))
        done = run_rounds([order] * 3, [False, True, True], golden, start,
                          float("inf"))
        (_, base), (_, first), (_, second) = done
        totals = traced_round(first)
        traced_round(second)
        mismatches = count_mismatches(first, second)
        overhead = (sum(j.wall_s * j.scale for j in first)
                    / sum(j.wall_s * j.scale for j in base))
        metrics = layers.finish(totals, overhead)
        write_spans(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    first)
        context["count_mismatches"] = mismatches
    else:
        rounds = max(1, round(args.seconds / spec["ref_round_s"]))
        orders = [rng.sample(pool, len(pool)) for _ in range(rounds)]
        done = run_rounds(orders, [False] * rounds, golden, start,
                          OVERRUN * args.seconds)
        metrics, info = end_to_end(done)
        context.update(info)

    jobs = [j for _, rnd in done for j in rnd]
    failed = [j for j in jobs if j.error]
    context["fail_ratio"] = len(failed) / len(jobs)
    context["calibration_s_after"] = calibrate()
    context["loadavg_after"] = os.getloadavg()
    context["run_s"] = time.monotonic() - start
    for job in failed[:5]:
        print(f"FAILED {job_key(job.argv)}: {job.error}")
    print("context " + json.dumps(context))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    correct = not failed and not mismatches
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
