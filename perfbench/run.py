"""Benchmark of the MIDAS reproduction's batched path.

Usage, from the repository root::

    python3 perfbench/run.py --workload capacity_sweep --seed 1 --seconds 15 --trace 0

Workloads and metrics are listed, with their units and why each workload
exists, in ``BENCHMARK.json``.  One run measures one workload:

* ``setup_s``: the median, over several fresh interpreters, of the time
  from interpreter start until the program is imported, its experiments
  are registered and the workload's runner and first spec are built;
* ``wall_s``: the median wall time of a cold run (compute plus cache
  write; for ``campaign`` a fresh campaign on a process pool), each scaled
  by the speed ticks sampled during it;
* ``topologies_per_s``: accepted topology evaluations of all cold runs
  divided by their summed wall time, so it averages over every input
  drawn (``fig15`` rejection sampling makes the cost of one input differ
  from another's by up to 40%);
* ``resume_s``: the median wall time of re-running the finished run from
  its cache (``campaign``: ``resume=True`` from journal and shard cache),
  each scaled by the read-kernel call timed right after it;
* ``peak_rss_mb``: peak resident memory of the workload process and its
  pool workers.

Every output is checked (see ``workloads.py``); operations that raise or
fail a check count in ``failed``.  ``--trace 1`` reports the per-layer
metrics of ``layers.py`` instead, from a separate traced run, and prints a
per-layer profile table.  BLAS/OpenMP threads are pinned to 1 and the
campaign pool never exceeds the CPU count.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set before NumPy loads, so this process and every child use one thread.
os.environ.update({var: "1" for var in THREAD_VARS})

import calibrate  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Timed set-up probes per run (one more, untimed, warms the disk cache
#: and compiles bytecode first).
SETUP_PROBES = 5

#: Wall-clock limit of the workload process, in seconds.
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_probe(workload: str, seed: int, workdir: Path, env: dict, importtime: Path | None):
    """Seconds from interpreter start until the probe reports ready."""
    cmd = [sys.executable]
    if importtime is not None:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), workload, str(workdir / "probe"), str(seed)]
    with open(importtime or os.devnull, "w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def measure_setup(args, workdir: Path, env: dict) -> dict:
    """``setup_s`` untraced; the ``startup.*`` import times when traced.

    Every probe is scaled to reference machine speed by calibrations taken
    just before and after it.
    """
    setup_probe(args.workload, args.seed, workdir, env, None)
    times, measured, imports, scipy_imports = [], [], [], []
    for i in range(SETUP_PROBES):
        log = workdir / f"importtime-{i}.txt" if args.trace else None
        before = calibrate.sample()
        elapsed = setup_probe(args.workload, args.seed, workdir, env, log)
        speed = calibrate.scale(1.0, before, calibrate.sample())
        times.append(elapsed * speed)
        measured.append(elapsed)
        if log is not None:
            total, scipy = layers.parse_importtime(log.read_text())
            imports.append(total * speed)
            scipy_imports.append(scipy * speed)
    if args.trace:
        return {
            "startup.import_s": statistics.median(imports),
            "startup.scipy_import_s": statistics.median(scipy_imports),
        }
    print("set-up probes, measured (s): " + json.dumps([round(t, 6) for t in measured]))
    return {"setup_s": statistics.median(times)}


def run_worker(args, workdir: Path, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    env = child_env()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        setup = measure_setup(args, workdir, env)
        out = run_worker(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if not out["wall_s"] or (args.trace and "per_layer" not in out):
        print("no run of the workload succeeded", file=sys.stderr)
        return 1
    print("machine: " + json.dumps(out["machine"], sort_keys=True))
    if args.trace:
        values = {**setup, **out["per_layer"]}
        metrics = spec["per_layer"]
        print(out["profile"])
    else:
        wall_s = statistics.median(out["wall_s"])
        values = {
            **setup,
            "wall_s": wall_s,
            "topologies_per_s": out["accepted"] * len(out["wall_s"]) / sum(out["wall_s"]),
            "resume_s": statistics.median(out["resume_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = spec["end_to_end"]
        for label, key in (("measured", "measured_wall_s"), ("scaled", "wall_s")):
            print(f"cold runs, {label} (s): {json.dumps([round(t, 6) for t in out[key]])}")
        print(f"{len(out['resume_s'])} resumed runs, median {values['resume_s']:.6g} s")
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    for name, entry in result.items():
        print(f"  {name:<28}{entry['value']:>16.6g} {entry['unit']}")
    failed_frac = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"  {'failed_frac':<28}{failed_frac:>16.6g} ({out['failed']}/{out['attempted']})")
    print(json.dumps({
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
