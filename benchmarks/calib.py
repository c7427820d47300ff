"""Host-speed calibration of wall_s.

The benchmark runs on shared 2-vCPU hosts whose speed drifts by up to 2x,
over seconds and over minutes, as neighbours come and go. That is as long
as a run, so medians over repetitions cannot remove it. The benchmark
therefore times four small fixed kernels while each repetition runs and
reports wall_s at a reference host speed:

    calibrated_s = work_s / speed
    speed = geometric mean over kernels of median(sample_s) / REFERENCE_S

A SIGALRM timer interrupts the repetition every PERIOD_S and runs the next
kernel in turn (about 1 ms each, so about 1% of the repetition); work_s is
the repetition's wall time minus the time spent in those interruptions.
The kernels are numpy arithmetic on small arrays, a dict-and-float loop,
key=value line splitting and a sort of fresh random floats: the kinds of
work the simulator, the bandwidth-file parser and the estimator do. On this host,
over four minutes of back-to-back repetitions, the sampled kernels cut the
spread of repetition times (quartile distance over median) from 0.15 to
0.07 on sim-farm and from 0.15 to 0.09 on forensics-archive; each kernel
alone did worse, and the same kernels timed between repetitions, as an
earlier version did, did not help at all (0.13-0.15).

REFERENCE_S are the kernels' times on the host where the benchmark was
defined (2 vCPUs, Python 3.11.7, numpy 2.4.6); they only fix the unit. The
kernels are part of the benchmark and never change with the program, so a
program that does less work lowers calibrated times in the same proportion
as raw ones. Raw times are reported next to the calibrated ones.

setup_s is a fraction of a second of imports in fresh interpreters, taken
between the repetitions. Kernels timed next to each import in the same
fresh interpreter did not follow it (sample spread 0.06 raw, 0.10
calibrated), but the run's median speed does: in two sets of ten runs per
workload, 10 minutes apart, the raw medians of the sets moved by up to 35%
with the host, and the calibrated ones by at most 2.5%. So setup_s is the
raw median divided by the median speed of the run's repetitions.
"""

import gc
import math
import random
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1

_XS = np.arange(1.0, 121.0)
_LINES = ["node_id=$%040X bw=%d nick=relay%d measured_at=%d unmeasured=0 "
          "vote=1 ratio=1.%03d" % (i * 7919, i * 13, i, 1650000000 + i, i % 1000)
          for i in range(150)]


def _numpy():
    acc = 0.0
    for _ in range(60):
        acc += float(np.mean((0.7 * (1.4 * _XS) ** 0.96 - (0.03 * _XS) ** 2 - _XS) ** 2))
    return acc


def _dict_loop():
    d = {}
    for i in range(6000):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    return d


def _split_lines():
    out = []
    for line in _LINES:
        kv = dict(p.split("=", 1) for p in line.split())
        out.append((kv["node_id"], int(kv["bw"]), float(kv["ratio"])))
    return out


def _sort():
    rng = random.Random(1)
    return sorted([rng.random() for _ in range(3000)])


KERNELS = (("numpy", _numpy), ("dict_loop", _dict_loop),
           ("split_lines", _split_lines), ("sort", _sort))
REFERENCE_S = {"numpy": 0.00090, "dict_loop": 0.00120, "split_lines": 0.00065,
               "sort": 0.00072}


class Sampler:
    """Times the kernels in turn, on a timer, while a repetition runs."""

    def __init__(self):
        self.samples = {name: [] for name, _ in KERNELS}
        self.busy_s = 0.0
        self._next = 0
        self._previous = None

    def _sample(self, *_):
        enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # the program's garbage is not the kernel's time
        try:
            name, kernel = KERNELS[self._next % len(KERNELS)]
            self._next += 1
            start = time.perf_counter()
            kernel()
            self.samples[name].append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self.busy_s += time.perf_counter() - enter

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # a repetition shorter than a full turn still samples every kernel
        while self._next < len(KERNELS):
            self._sample()

    def kernel_s(self):
        """Geometric mean of the kernels' median sample times."""
        return math.exp(statistics.fmean(
            math.log(statistics.median(v)) for v in self.samples.values()))

    def speed(self):
        return math.exp(statistics.fmean(
            math.log(statistics.median(v) / REFERENCE_S[name])
            for name, v in self.samples.items()))
