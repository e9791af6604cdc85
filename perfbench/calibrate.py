"""Machine-speed calibration.

On a shared host the same computation can take up to twice as long from
one moment to the next: the machine switches between a fast and a slow
state within fractions of a second.  Raw wall times of two runs therefore
differ by more than any useful regression bound, and the benchmark
reports every time scaled to a reference machine by a fixed,
program-independent kernel timed on this machine at the same time::

    reported = measured * reference kernel time / kernel time now

Three kernels serve measurements of three lengths:

* a cold run (seconds) is sampled *during* the run by :class:`SpeedSampler`,
  which times :func:`_tick` from a ``SIGALRM`` interval timer every
  :data:`TICK_INTERVAL_S` and divides by the mean tick time, so the scale
  follows the share of the run the machine spent slow.  On a 2-CPU VM the
  spread (quartile distance over median) of repeated same-input runs
  scaled this way was 0.04 on ``loaded_cell`` and 0.11 on ``campaign``,
  against 0.13-0.16 and 0.10-0.33 with two calibrations taken just before
  and after the run;
* a resumed run (about a millisecond, shorter than one speed state) is
  paired with one :class:`ReadKernel` call timed right after it;
* a set-up probe runs in a fresh interpreter, so it is scaled by
  :func:`sample` calls taken just before and after it (:func:`scale`).

The kernels mix the kinds of work the program does: interpreted Python,
many small NumPy calls, dense matrix products, generator spawning and
JSON reads.  They allocate little, so they leave ``peak_rss_mb`` alone.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from pathlib import Path

import numpy as np

#: Calibration time of the reference machine, in seconds: a value in the
#: range measured on a 2-CPU x86-64 VM (2.2-5.0 ms), so that scaled times
#: read close to measured ones.
REFERENCE_S = 0.003

_RNG = np.random.default_rng(20141202)
_MATRIX = _RNG.standard_normal((120, 120))
_SMALL = _RNG.standard_normal(64)
_TICK_MATRIX = _RNG.standard_normal((40, 40))


def _python() -> int:
    total = 0
    for i in range(60_000):
        total += i % 7
    return total


def _small_arrays() -> float:
    total = 0.0
    for _ in range(1_500):
        total += float(np.sum(_SMALL * _SMALL))
    return total


def _matmul():
    m = _MATRIX
    for _ in range(8):
        m = m @ _MATRIX / 120.0
    return m


def _spawn() -> list:
    seq = np.random.SeedSequence(7)
    return [np.random.default_rng(child) for child in seq.spawn(300)]


KERNELS = (_python, _small_arrays, _matmul, _spawn)


def sample() -> float:
    """Geometric mean over the kernels of each kernel's median of 3 times."""
    log_sum = 0.0
    for kernel in KERNELS:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        log_sum += np.log(statistics.median(times))
    return float(np.exp(log_sum / len(KERNELS)))


def scale(measured_s: float, before_s: float, after_s: float) -> float:
    """``measured_s`` at reference speed, from calibrations taken around it."""
    return measured_s * REFERENCE_S / (before_s * after_s) ** 0.5


#: Time of one :func:`_tick` on the reference machine, in seconds: a value
#: in the range measured on the VM above (0.2-0.45 ms).
TICK_REFERENCE_S = 0.0003

#: Seconds between two ticks while a run is sampled: ticks take about 1%
#: of the run, and a one-second run gets 40 of them.
TICK_INTERVAL_S = 0.025


def _tick() -> float:
    """CPU seconds a short mix of the calibration kernels takes now.

    CPU time, not wall time: a tick that waits for a CPU held by the
    campaign's own pool workers says nothing about the machine's speed.
    """
    start = time.thread_time()
    total = 0
    for i in range(1_500):
        total += i % 7
    for _ in range(50):
        float(np.sum(_SMALL * _SMALL))
    m = _TICK_MATRIX
    for _ in range(2):
        m = m @ _TICK_MATRIX / 40.0
    return time.thread_time() - start


class SpeedSampler:
    """Samples the machine's speed while a run is timed.

    Inside the ``with`` block a ``SIGALRM`` interval timer times a tick
    every :data:`TICK_INTERVAL_S`; one more tick is timed on entry and one
    on exit.  ``spent`` is the time the ticks inside the block took, to be
    taken off the run's wall time, and :meth:`speed` the factor that scales
    a time measured in the block to the reference machine.  Pool workers
    forked inside the block inherit no timer, so they are not sampled.
    """

    def __enter__(self):
        self.ticks = [_tick()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ticks.append(_tick())
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.ticks.append(_tick())

    def speed(self) -> float:
        return TICK_REFERENCE_S / statistics.fmean(self.ticks)


#: Time of one :class:`ReadKernel` call on the reference machine, in
#: seconds: a value in the range measured on the VM above (1.1-2.0 ms).
READ_REFERENCE_S = 0.0015


class ReadKernel:
    """Read, parse and re-serialise a fixed JSON document.

    This is the kind of work a resumed run does (read a cached result from
    disk, decode it to arrays; a campaign also re-encodes its journal and
    manifest), with a fixed input, so its time follows the machine's
    speed, not the program's.  On a 2-CPU VM whose speed switched by up to
    2x, the median over a short window of resumed-run time divided by the
    time of the call after it varied by 2% between windows on Runner
    workloads and 10% on the campaign, against 11-78% for raw times.
    """

    def __init__(self, workdir: Path):
        self.path = Path(workdir) / "read-kernel.json"
        rng = np.random.default_rng(20141202)
        series = {f"s{i}": rng.standard_normal((30, 5)).tolist() for i in range(14)}
        self.path.write_text(json.dumps({"series": series, "params": {f"p{i}": i for i in range(20)}}))
        self.index = {f"k{i}": {"a": [1.5, 2.5, i], "b": "x" * 8} for i in range(40)}

    def __call__(self) -> float:
        """Seconds one read takes now."""
        start = time.perf_counter()
        doc = json.loads(self.path.read_text())
        {name: np.asarray(values) for name, values in doc["series"].items()}
        json.dumps(self.index, sort_keys=True, indent=1)
        return time.perf_counter() - start
