"""Run one workload in a process of its own and print its measurements.

Started by ``run.py``, which owns the command line; the last line of
standard output is one JSON object.  The first cold run is a warm-up on
:data:`workloads.REFERENCE_SEED`, checked against ``reference.json``; each
timed cold run draws a fresh input from the given seed (see
:func:`input_seed`).  With ``--trace 1`` the time is split:
untraced runs first, then traced runs under :class:`tracer.Tracer` and a
``repro.obs.Telemetry``, whose outputs must equal the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import layers
import numpy as np
import scipy
import workloads
from tracer import Tracer

from repro.obs import Telemetry

#: Least number of cold runs a measurement makes, however long they take.
MIN_REPS = 3

#: Resumed runs timed after each cold run: at least this many, and more
#: until this many seconds have passed.  A resumed run's time relative to
#: its read kernel wanders by up to 20% from one few-tenths-of-a-second
#: stretch to the next (most on ``round_engine``, whose cache hit is 0.3 ms
#: of mostly interpreted code), so a run needs seconds of them in all.
RESUMES = 5
RESUME_SECONDS = 0.5

#: Least share of the traced wall time that wrapped self times must cover.
MIN_SELF_COVERAGE = 0.9


@dataclass
class Rep:
    """One cold run and the resumed runs that read its cache back.

    Times are at reference machine speed (see ``calibrate.py``: the cold
    run scaled by the :class:`calibrate.SpeedSampler` ticks during it, each
    resumed run by the :class:`calibrate.ReadKernel` call after it);
    ``speed`` is the factor that scaled the cold run's measured time,
    ``raw_s`` the measured time of all its runs (speed ticks included, as
    the tracer counts them in whichever function they interrupt; they take
    about 1% of it) and ``index`` its place
    among the cold runs of a measurement.
    """

    cold: object
    resumed: object
    wall_s: float
    resume_s: list
    cache_bytes: int
    speed: float
    raw_s: float
    index: int = 0


@dataclass
class Ledger:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ops: int, problems: list, attempted: bool = True) -> bool:
        """Count ``ops`` operations, all failed if there are ``problems``;
        ``attempted=False`` fails operations already counted."""
        self.attempted += ops if attempted else 0
        if problems:
            self.failed += ops
            self.problems.extend(problems)
        return not problems


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _timed(workload, spec, cache, resume, tracer, telemetry):
    """One run and its wall time; only the run itself is traced.  A cold run
    is also sampled: it returns the sampler, and the ticks are taken off its
    time."""
    runner = workload.runner(cache, telemetry)
    sampler = None if resume else calibrate.SpeedSampler()
    with tracer if tracer is not None else contextlib.nullcontext():
        with sampler if sampler is not None else contextlib.nullcontext():
            start = time.perf_counter()
            result = workload.run(runner, spec, resume=resume)
            elapsed = time.perf_counter() - start
    if sampler is None:
        return result, elapsed
    return result, elapsed - sampler.spent, sampler


def run_rep(
    workload, spec, workdir, ledger, resumes, resume_seconds=0.0,
    tracer=None, telemetry=None, reference=None,
):
    """A cold run, then resumed runs (at least ``resumes``, and more until
    ``resume_seconds`` have passed), each checked (the cold run also
    against ``reference``) and each followed by a read-kernel call that
    scales it; ``None`` if the cold run raised or gave a wrong result.
    With ``tracer`` and ``telemetry`` the runs are traced."""
    read_kernel = calibrate.ReadKernel(workdir)
    cache = Path(tempfile.mkdtemp(dir=workdir))
    try:
        try:
            cold, wall_s, sampler = _timed(workload, spec, cache, False, tracer, telemetry)
        except Exception:  # noqa: BLE001 -- counted as failed, benchmark goes on
            ledger.record(workload.shards, [traceback.format_exc()])
            return None
        if not ledger.record(workload.shards, workloads.check_result(workload, cold, reference)):
            return None
        resume_s, scaled, resumed = [], [], None
        started = time.perf_counter()
        while len(resume_s) < resumes or time.perf_counter() - started < resume_seconds:
            try:
                resumed, elapsed = _timed(workload, spec, cache, True, tracer, telemetry)
            except Exception:  # noqa: BLE001 -- counted as failed, benchmark goes on
                ledger.record(workload.shards, [traceback.format_exc()])
                break
            resume_s.append(elapsed)
            scaled.append(elapsed * calibrate.READ_REFERENCE_S / read_kernel())
            ledger.record(workload.shards, workloads.check_resume(workload, cold, resumed))
        entries = cache / "cache" if workload.is_campaign else cache
        return Rep(
            cold,
            resumed,
            wall_s * sampler.speed(),
            scaled,
            _dir_bytes(entries),
            sampler.speed(),
            wall_s + sampler.spent + sum(resume_s),
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th cold run of a benchmark run with ``--seed``.

    Every cold run draws a fresh input, so one benchmark run averages over
    several inputs instead of resting on one draw.
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def measure(
    workload, seed, workdir, ledger, seconds, min_reps, trace=False, expected=None, keep=False
):
    """Cold runs (each followed by resumes) until ``seconds`` have passed and
    at least ``min_reps`` ran, run ``k`` on input seed ``input_seed(seed, k)``.

    With ``expected`` (the outputs of an earlier call, by run index) every
    run's output must equal the earlier one.  Returns the reps, one
    ``(metrics, profile rows, traced seconds)`` per rep when ``trace`` is
    set, and, when ``keep`` is set, the outputs by run index (else
    ``None``s, so memory stays flat).
    """
    reps, traced, outputs = [], [], []
    start = time.perf_counter()
    index = 0
    while index < min_reps or time.perf_counter() - start < seconds:
        spec = workload.spec(input_seed(seed, index))
        if trace:
            tracer, telemetry = Tracer(layers.ITEM_COUNTS), Telemetry()
            rep = run_rep(workload, spec, workdir, ledger, 1, tracer=tracer, telemetry=telemetry)
            if rep is not None:
                traced.append(_traced_metrics(workload, rep, tracer, telemetry, ledger))
        else:
            rep = run_rep(workload, spec, workdir, ledger, RESUMES, RESUME_SECONDS)
        if rep is not None:
            rep.index = index
            reps.append(rep)
            known = expected[index] if expected and index < len(expected) else None
            if known is not None and not workloads.same_output(workload, known, rep.cold):
                problem = f"traced run {index} output differs from the untraced run"
                ledger.record(workload.shards, [problem], attempted=False)
            outputs.append(rep.cold if keep else None)
            rep.cold = rep.resumed = None
        else:
            outputs.append(None)
        index += 1
    return reps, traced, outputs


def _traced_metrics(workload, rep, tracer, telemetry, ledger):
    stats = tracer.combined()
    extra = {"accepted": workload.accepted, "cache_bytes": rep.cache_bytes}
    if workload.is_campaign and rep.resumed is not None:
        extra["from_cache_ratio"] = workloads.from_cache_ratio(rep.resumed)
    metrics = layers.rep_metrics(
        stats, tracer.stats, telemetry.counters, telemetry.span_totals(), rep.raw_s, extra
    )
    problems = layers.expected_call_problems(workload.name, stats)
    if metrics["trace.self_coverage"] < MIN_SELF_COVERAGE:
        problems.append(
            f"wrapped self times cover {metrics['trace.self_coverage']:.1%} of the "
            f"traced wall time, below {MIN_SELF_COVERAGE:.0%}"
        )
    ledger.record(0, problems)
    scaled = {
        name: value * rep.speed if layers.PER_LAYER[name] == "s" else value
        for name, value in metrics.items()
    }
    return scaled, layers.profile_rows(tracer.stats, tracer.worker_stats), rep.raw_s


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process plus its pool workers (each counted at the
    largest worker's peak, so shared copy-on-write pages count per process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = workloads.campaign_jobs() if workload.is_campaign else 0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    workloads.load_all()
    ledger = Ledger()

    reference = workloads.load_reference()[workload.name]
    run_rep(
        workload, workload.spec(workloads.REFERENCE_SEED), args.workdir, ledger,
        resumes=1, reference=reference,
    )

    budget = args.seconds / 2 if args.trace else args.seconds
    reps, _, outputs = measure(
        workload, args.seed, args.workdir, ledger, budget, MIN_REPS - args.trace,
        keep=bool(args.trace),
    )
    out = {
        "wall_s": [r.wall_s for r in reps],
        "measured_wall_s": [r.wall_s / r.speed for r in reps],
        "resume_s": [s for r in reps for s in r.resume_s],
        "accepted": workload.accepted,
    }
    if args.trace:
        traced_reps, traced, _ = measure(
            workload, args.seed, args.workdir, ledger, budget, 1, trace=True, expected=outputs
        )
        if traced:
            per_layer = layers.median_metrics([metrics for metrics, _, _ in traced])
            untraced = {r.index: r.wall_s for r in reps}
            overheads = [r.wall_s - untraced[r.index] for r in traced_reps if r.index in untraced]
            per_layer["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
            out["per_layer"] = per_layer
            _, rows, traced_s = traced[-1]
            out["profile"] = layers.format_profile(rows, traced_s)
    out.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        problems=ledger.problems,
        peak_rss_mb=peak_rss_mb(workload),
        machine=machine(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
