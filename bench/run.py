#!/usr/bin/env python3
"""Closed-loop benchmark of the baryflow CLI.

Run from the repository root:

    python3 bench/run.py --workload bary1d --seed 0 --seconds 20 --trace 0

One client issues one CLI command at a time, in this process, through
``baryflow.cli.main``. The inputs of a run are generated from ``--seed``
(see workloads.py): ``INSTANCES`` configs, invoked in whole cycles for about
``--seconds``, at least two cycles. Set-up samples (fresh interpreters) are
interleaved with the invocations. Every invocation is checked: exit code 0,
the workload's output check, and artifacts (all but ``run_report.json``)
byte-identical to the first run of the same instance.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (tracing.py). The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The line
before it, and ``.bench_out/results/``, hold the full record: quartiles,
sample counts, per-instance quality numbers and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# BLAS pools pinned to one thread: one client, one command at a time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One set-up sample before every SETUP_EVERY-th invocation, so the samples
# spread over the run and average over drift of the host.
SETUP_EVERY = 2
IMPORTTIME_RUNS = 3
# No invocation starts after this many seconds, so a run ends well within 180 s.
HARD_STOP_S = 120.0
SETUP_CODE = ("import sys\nfrom baryflow.cli import main\n"
              "sys.exit(main(['validate', sys.argv[1]]))\n")
REPORT_NAME = "run_report.json"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("bary1d", "gmm5d", "msda2d", "entropic2d"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> dict:
    """Pin BLAS pools before numpy loads; the program's own thread option
    is left at its default."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("BARYFLOW_THREADS", None)
    return {var: os.environ[var] for var in THREAD_VARS}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def quartiles(values) -> dict:
    v = sorted(values)
    if not v:
        return {"n": 0}
    q1, q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    return {"median": statistics.median(v), "q1": q1, "q3": q3,
            "min": v[0], "max": v[-1], "n": len(v)}


def artifact_digest(out_dir: Path) -> dict:
    """SHA-256 of every artifact except the run report, which carries
    wall-clock timings."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != REPORT_NAME}


def _first_line_with(path: str, key: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(pinned: dict) -> dict:
    import numpy as np
    import scipy
    from baryflow.cli import _git_describe
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line_with("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "pinned": pinned,
        "git_describe": _git_describe(),
    }


class Session:
    """Invokes instances through the CLI and checks every invocation."""

    def __init__(self, cli, workloads, workload: str, tracer=None):
        self.cli = cli
        self.workloads = workloads
        self.workload = workload
        self.tracer = tracer
        self.digests: dict[int, dict] = {}
        self.setup_times: list[float] = []
        self.quality: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"bench: FAILED {message}", file=sys.stderr)

    def invoke(self, inst) -> float | None:
        """Run one instance; returns its wall time in seconds, or None if it
        failed."""
        self.attempted += 1
        shutil.rmtree(inst.out_dir, ignore_errors=True)
        tracer = self.tracer
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is not None:
                    tracer.recording = True
                try:
                    t0 = time.perf_counter()
                    rc = self.cli.main([inst.command, str(inst.config_path)])
                    wall = time.perf_counter() - t0
                finally:
                    if tracer is not None:
                        tracer.recording = False
                        tracer.run_id += 1
            if rc != 0:
                raise self.workloads.CheckFailed(f"exit code {rc}")
            quality = self.workloads.check(self.workload, inst)
            digest = artifact_digest(inst.out_dir)
            if self.digests.setdefault(inst.index, digest) != digest:
                raise self.workloads.CheckFailed(
                    "artifacts differ from the first run of this instance")
        except Exception as e:  # one failed invocation is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            self.fail(f"instance {inst.index}: {e!r}")
            return None
        self.quality.setdefault(inst.index, quality)
        return wall

    def time_setup(self, inst) -> None:
        """One fresh interpreter that imports ``baryflow.cli`` and validates
        the instance's config, timed from spawn to exit."""
        self.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE,
                               str(inst.config_path)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            self.fail(f"setup exited {proc.returncode}: {proc.stderr.strip()}")
        else:
            self.setup_times.append(elapsed)

    def cycle(self, instances, seconds: float, deadline: float,
              min_cycles: int, setup: bool = False) -> list[float]:
        """Invoke every instance once per cycle, for the whole number of
        cycles (at least ``min_cycles``) that ends nearest to ``seconds``.
        Whole cycles weight the instances equally, so the median does not
        depend on where a partial cycle stops. With ``setup``, a set-up
        sample precedes every ``SETUP_EVERY``-th invocation; it is not part
        of the invocation's time."""
        times = []
        start = time.perf_counter()
        cycles = 0
        while True:
            for i, inst in enumerate(instances):
                if setup and i % SETUP_EVERY == 0:
                    self.time_setup(inst)
                wall = self.invoke(inst)
                if wall is not None:
                    times.append(wall)
            cycles += 1
            elapsed = time.perf_counter() - start
            if time.perf_counter() >= deadline or (
                    cycles >= min_cycles
                    and elapsed + elapsed / cycles / 2.0 >= seconds):
                return times


def import_times(session: Session, tracing) -> dict:
    """Median self import times from ``python -X importtime``."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        session.attempted += 1
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import baryflow.cli"], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            session.fail(f"importtime exited {proc.returncode}")
            continue
        runs.append(tracing.parse_importtime(proc.stderr))
    return {f"setup.import.{k}_ms": statistics.median(r[k] for r in runs) if runs else 0.0
            for k in ("scipy", "baryflow", "total")}


def quality_of(session: Session, workloads, instances) -> float:
    key = workloads.WORKLOADS[session.workload].quality_key
    vals = [session.quality[i.index][key] for i in instances
            if i.index in session.quality]
    return statistics.fmean(vals) if vals else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "baryflow" / "cli.py").is_file():
        print(f"bench: no baryflow sources under {SRC}", file=sys.stderr)
        return 2
    pinned = pin_threads()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    deadline = time.perf_counter() + HARD_STOP_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    instances = workloads.make_instances(args.workload, args.seed, work)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "instance_seeds": [i.seed for i in instances],
              "n_iter": instances[0].n_iter}
    session = Session(None, workloads, args.workload)
    try:
        if args.trace:
            metrics, units = traced_run(args, session, instances, tracing,
                                        workloads, deadline, detail, results, tag)
        else:
            import baryflow.cli as cli
            session.cli = cli
            session.time_setup(instances[0])
            session.invoke(instances[0])  # warm-up, checked but not timed
            walls = session.cycle(instances, args.seconds, deadline,
                                  min_cycles=2, setup=True)
            if tracing.installed_wrappers():
                session.fail("wrappers installed during an untraced run")
            setup = session.setup_times
            detail["setup_s"] = quartiles(setup)
            detail["wall_s"] = quartiles(walls)
            detail["wall_s"]["tail_pct"], detail["wall_s"]["tail"] = \
                tracing.tail_percentile(walls)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            quality = quality_of(session, workloads, instances)
            metrics = {
                "wall_s": statistics.median(walls) if walls else float("nan"),
                "setup_s": statistics.median(setup) if setup else float("nan"),
                "peak_rss_mb": peak_mb,
                "quality": quality,
            }
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                     "quality": "score"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["quality_by_instance"] = [session.quality.get(i.index)
                                     for i in instances]
    detail["error_rate"] = session.failed / max(session.attempted, 1)
    detail["errors"] = session.errors
    detail["environment"] = environment(pinned)
    detail["metrics"] = metrics
    with open(results / f"{tag}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_run(args, session, instances, tracing, workloads, deadline, detail,
               results, tag):
    """Untraced and traced halves on the same instances; the per-layer
    metrics come from the traced half only."""
    imports = import_times(session, tracing)
    import baryflow.cli as cli
    session.cli = cli
    session.invoke(instances[0])  # warm-up, checked but not timed
    untraced = session.cycle(instances, args.seconds / 2.0, deadline,
                             min_cycles=1)
    tracer = tracing.Tracer()
    session.tracer = tracer
    tracer.install()
    try:
        traced = session.cycle(instances, args.seconds / 2.0, deadline,
                               min_cycles=1)
    finally:
        tracer.uninstall()
        session.tracer = None
    if tracing.installed_wrappers():
        session.fail("wrappers left installed after the traced run")
    metrics = tracing.layer_metrics(tracer.spans, max(tracer.run_id, 1))
    metrics.update(imports)
    base = statistics.median(untraced) if untraced else float("nan")
    over = (statistics.median(traced) if traced else float("nan")) - base
    metrics["trace.overhead_ms"] = 1e3 * over
    metrics["trace.overhead_pct"] = 100.0 * over / base
    detail["wall_s_untraced"] = quartiles(untraced)
    detail["wall_s_traced"] = quartiles(traced)
    # names the percentile behind flow_step.tail_ms; not a metric
    detail["flow_step_tail_pct"] = metrics["flow_empirical.flow_step.tail_pct"]
    tracer.write_csv(results / f"{tag}-spans.csv")
    units = dict(tracing.PER_LAYER)
    return {name: metrics[name] for name, _ in tracing.PER_LAYER}, units


if __name__ == "__main__":
    sys.exit(main())
