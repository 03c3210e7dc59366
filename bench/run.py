"""End-to-end benchmark of the tailgauge CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py``): ``mc_validate``, ``bias_surface`` and
``tail_fit``.  Inputs are generated from the seed before anything is timed.

Each job is one or more real CLI calls, ``python -m tailgauge.cli ...``,
each in a fresh child process, so the package's in-process caches start cold
as they do for every CLI user.  The load is a closed loop with one client:
one job at a time.  Jobs repeat until ``--seconds`` have passed (at least
MIN_JOBS); each reported time is the median over the jobs of the run.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: a child that only starts Python and imports ``tailgauge.cli``,
  SETUP_PER_JOB times before each job;
- ``job_s``: wall time of the job's child processes;
- ``items_per_s``: items of the job (replications, surface cells or input
  rows) divided by ``job_s``;
- ``cpu_s``: user plus system CPU time of the job's children;
- ``peak_rss_mb``: the largest peak resident set of the job's children.

``--trace 1`` alternates untraced jobs with jobs run under ``tracing.py`` and
reports the per-layer metrics of the traced job with the median wall time
(see ``tracing.layer_metrics``).

Every output is checked (``checks.py``); every later job must reproduce the
first job's output exactly.  ``attempted`` counts CLI calls, checks and Monte
Carlo replications; ``failed`` counts non-zero exits, failed checks and
failed fits.  The last line of standard output is the result object; the
lines before it record the run environment and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_JOBS = 3
SETUP_PER_JOB = 3
# no child may outlive this many seconds after start, so the run ends < 180 s
DEADLINE_S = 165.0
SETUP_ARGV = [sys.executable, "-c", "import tailgauge.cli"]
# (metric, unit, better) of the untraced run, in BENCHMARK.json order
END_TO_END = [
    ("job_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
MC_PICKS = 3
SURFACE_PICKS = 2


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str


@dataclass
class Job:
    children: list[Child] = field(default_factory=list)
    steal_s: float = 0.0
    outputs: list[str | None] = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.children)

    @property
    def ok(self) -> bool:
        return all(c.code == 0 for c in self.children)


def run_child(argv: list[str], env: dict, deadline: float) -> Child:
    """Run one child to completion; its rusage gives CPU time and peak RSS."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")[-2000:]
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, stderr)


def steal_seconds() -> float:
    """CPU time the hypervisor has stolen from this machine's CPUs, if known.

    Recorded per job as a fact: it shows when a slow run was a busy host.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_job(wl: workloads.Workload, env: dict, deadline: float,
            spans_dir: Path | None = None) -> Job:
    job = Job()
    steal0 = steal_seconds()
    for k, inv in enumerate(wl.invocations):
        if spans_dir is None:
            argv = [sys.executable, "-m", "tailgauge.cli", *inv.argv]
        else:
            spans_path = spans_dir / f"spans-{k}.json"
            argv = [sys.executable, str(BENCH / "tracing.py"), str(spans_path),
                    str(k), *inv.argv]
        child = run_child(argv, env, deadline)
        job.children.append(child)
        if child.code != 0:
            print(f"bench: exit {child.code}: {' '.join(inv.argv)}\n{child.stderr}",
                  file=sys.stderr)
        job.outputs.append(inv.out.read_text(encoding="utf-8")
                           if child.code == 0 and inv.out.exists() else None)
        inv.out.unlink(missing_ok=True)
        if spans_dir is not None and child.code == 0:
            job.spans.append(tracing.load(str(spans_path)))
    job.steal_s = steal_seconds() - steal0
    return job


def check_outputs(wl: workloads.Workload, outputs: list[str | None]) -> dict[str, bool]:
    import checks  # imports tailgauge, so only after main() has put src/ on the path
    if any(o is None for o in outputs):
        return {"outputs_written": False}
    if wl.name == "mc_validate":
        picks = workloads.pick(wl.seed, workloads.MC_REPLICATIONS, MC_PICKS, stream=10)
        return checks.mc_validate(json.loads(outputs[0]), picks)
    if wl.name == "bias_surface":
        picks = workloads.pick(wl.seed, wl.items, SURFACE_PICKS, stream=11)
        return checks.bias_surface(outputs[0], wl.inputs["n_grid"],
                                   wl.inputs["xi_grid"], picks)
    out = {}
    for text, (label, data) in zip(outputs, wl.inputs["series"].items()):
        out.update({f"{label}.{k}": v
                    for k, v in checks.tail_fit(json.loads(text), data,
                                                    workloads.TAIL_FRACTION).items()})
    return out


def tally(wl: workloads.Workload, jobs: list[Job]) -> tuple[int, int, list[str]]:
    """(attempted, failed, names of failed checks and non-zero exits)."""
    results = check_outputs(wl, jobs[0].outputs)
    for k, job in enumerate(jobs[1:], start=1):
        results[f"repeat_job{k}"] = job.outputs == jobs[0].outputs
    attempted = sum(len(j.children) for j in jobs) + len(results)
    failed = sum(not j.ok for j in jobs) + sum(not ok for ok in results.values())
    if wl.name == "mc_validate":
        for j in jobs:
            if j.ok:
                report = json.loads(j.outputs[0])
                attempted += report["replications"]
                failed += report["failed_fits"]
    failed_checks = sorted(k for k, ok in results.items() if not ok)
    failed_checks += [f"exit_job{k}" for k, j in enumerate(jobs) if not j.ok]
    return attempted, failed, failed_checks


def measure(wl, env, seconds, deadline):
    """Untraced jobs with set-up samples interleaved; end-to-end metrics."""
    setup, jobs = [], []
    t0 = time.monotonic()
    while len(jobs) < MIN_JOBS or time.monotonic() - t0 < seconds:
        last = jobs[-1].wall if jobs else 0.0
        if time.monotonic() + 1.5 * last > deadline:
            break
        setup += [run_child(SETUP_ARGV, env, deadline).wall
                  for _ in range(SETUP_PER_JOB)]
        jobs.append(run_job(wl, env, deadline))
        if not jobs[-1].ok:
            break
    job_s = statistics.median(j.wall for j in jobs)
    values = {
        "job_s": job_s,
        "items_per_s": wl.items / job_s,
        "cpu_s": statistics.median(sum(c.cpu for c in j.children) for j in jobs),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in j.children) for j in jobs),
        "setup_s": statistics.median(setup),
    }
    metrics = {name: (values[name], unit) for name, unit, _better in END_TO_END}
    samples = {"job_s": [j.wall for j in jobs], "setup_s": setup,
               "cpu_s": [sum(c.cpu for c in j.children) for j in jobs],
               "steal_s": [j.steal_s for j in jobs]}
    return jobs, metrics, samples


def measure_traced(wl, env, seconds, deadline, workdir):
    """Untraced and traced jobs in turn; per-layer metrics of one traced job."""
    plain, traced = [], []
    t0 = time.monotonic()
    while not traced or time.monotonic() - t0 < seconds:
        last = plain[-1].wall + traced[-1].wall if traced else 0.0
        if time.monotonic() + 1.5 * last > deadline:
            break
        plain.append(run_job(wl, env, deadline))
        spans_dir = workdir / f"spans-{len(traced)}"
        spans_dir.mkdir()
        traced.append(run_job(wl, env, deadline, spans_dir))
        if not (plain[-1].ok and traced[-1].ok):
            break
    chosen = sorted(traced, key=lambda j: j.wall)[len(traced) // 2]
    layers = tracing.layer_metrics(
        [(spans, c.wall) for spans, c in zip(chosen.spans, chosen.children)],
        statistics.median(j.wall for j in plain))
    units = {name: unit for name, unit, _better in tracing.PER_LAYER}
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    samples = {"job_s": [j.wall for j in plain], "traced_job_s": [j.wall for j in traced]}
    return plain + traced, metrics, samples


def environment() -> dict:
    """Facts about the machine and build, recorded next to the results."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "tailgauge" / "cli.py").is_file():
        print(f"bench: no tailgauge package under {SRC}", file=sys.stderr)
        return 2
    # checks.py imports the package from this checkout, as the children do
    sys.path.insert(0, str(SRC))
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAILGAUGE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH))
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        run_child(SETUP_ARGV, env, deadline)  # writes the bytecode cache
        if args.trace:
            jobs, metrics, samples = measure_traced(wl, env, args.seconds, deadline, workdir)
        else:
            jobs, metrics, samples = measure(wl, env, args.seconds, deadline)
        attempted, failed, failed_checks = tally(wl, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": wl.name, "seed": wl.seed, "items": wl.items,
                      "samples": samples, "failed_checks": failed_checks}))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
