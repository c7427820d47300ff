"""SBWS-style scanner model.

A scanner measures one relay at a time over a two-hop circuit (target +
exit at least EXIT_SPEED_FACTOR times as fast). It adapts a download size
until a single download lands in the 5-10 s band, then runs
DOWNLOADS_PER_MEASUREMENT timed downloads; the measured bandwidth is the
mean per-download throughput. With five in-band downloads of at least
MIN_DURATION_PER_DOWNLOAD seconds a measurement can never finish in under
25 seconds, which is the constraint the timeline-inference code exploits
later (bwfile.MIN_MEASUREMENT_GAP is that product).
"""

import logging
import random
from bisect import bisect_left
from dataclasses import dataclass

from .units import GIB, MIB

log = logging.getLogger(__name__)

MAX_ADAPTATION_STEPS = 20
# the sbws download ladder: in-band durations (s), size step and cap (bytes)
MIN_DURATION_PER_DOWNLOAD = 5.0
MAX_DURATION_PER_DOWNLOAD = 10.0
RANGE_INCREMENT = 16 * MIB
MAX_FILE = GIB
# timed downloads per measurement, and how much faster than the target an
# exit must advertise itself to carry the measurement
DOWNLOADS_PER_MEASUREMENT = 5
EXIT_SPEED_FACTOR = 2.0


@dataclass(frozen=True)
class ScannerConfig:
    ba_id: str = "ba0"
    threads: int = 4
    round_budget: float = 3600.0

    def __post_init__(self):
        # the scanner's bandwidth file is bwfiles/<ba_id>.bw, whose stem must
        # read back as ba_id: no directory, no NUL byte, not a hidden file
        if self.ba_id[:1] in ("", ".") or "/" in self.ba_id or "\0" in self.ba_id:
            raise ValueError("ba_id must be a plain file name, got %r" % (self.ba_id,))
        if not 1 <= self.threads <= 8:
            raise ValueError("threads must be in [1, 8], got %d" % self.threads)
        if not self.round_budget > 0:
            raise ValueError("round_budget must be > 0, got %r" % (self.round_budget,))


@dataclass(frozen=True)
class MeasurementPlan:
    target: str
    exit: str


def exit_candidates(exits):
    """candidates(target): the exits at least EXIT_SPEED_FACTOR times as fast
    as target, in relay_id order. The exits too slow for a target are the k
    slowest, ties never split, so the list depends only on k (a bisect on
    the sorted bandwidths): each is built once and shared after."""
    exits = sorted(exits, key=lambda r: r.relay_id)
    bandwidths = sorted(e.advertised_bw for e in exits)
    lists = {}

    def candidates(target):
        threshold = EXIT_SPEED_FACTOR * target.advertised_bw
        below = bisect_left(bandwidths, threshold)
        if below not in lists:
            lists[below] = [e for e in exits if e.advertised_bw >= threshold]
        return lists[below]
    return candidates


def select_exit(candidates, target, rng):
    """Draw target's exit uniformly from candidates(target), in relay_id
    order, so a given rng state always picks the same exit; None, without
    drawing, when no exit qualifies."""
    found = candidates(target)
    return rng.choice(found) if found else None


def plan_round(cfg: ScannerConfig, relays, rng_seed) -> tuple:
    """Plan one measurement round: every non-exit relay once, shuffled order.

    Exits are drawn by select_exit from candidate lists built once for the
    round. Targets with no usable exit are skipped with a warning.
    """
    rng = random.Random("%s/plan" % (rng_seed,))
    exits, targets = [], []
    for relay in relays:
        (exits if relay.role == "exit" else targets).append(relay)
    candidates = exit_candidates(exits)
    targets.sort(key=lambda r: r.relay_id)
    plans = []
    for target in targets:
        exit_relay = select_exit(candidates, target, rng)
        if exit_relay is None:
            log.warning("%s: no exit at least %.1fx faster than target %s, skipping",
                        cfg.ba_id, EXIT_SPEED_FACTOR, target.relay_id)
            continue
        plans.append(MeasurementPlan(target=target.relay_id, exit=exit_relay.relay_id))
    rng.shuffle(plans)
    if targets and not plans:
        log.warning("%s: round is empty, no target has a qualifying exit", cfg.ba_id)
    return tuple(plans)


def adapt_range(size: int, observed_duration: float) -> int:
    """Double below the band, halve above it, clamp to legal increment bounds."""
    if observed_duration < MIN_DURATION_PER_DOWNLOAD:
        size *= 2
    elif observed_duration > MAX_DURATION_PER_DOWNLOAD:
        size //= 2
    size = max(RANGE_INCREMENT, min(MAX_FILE, size))
    # round up to the next increment multiple
    remainder = size % RANGE_INCREMENT
    if remainder:
        size += RANGE_INCREMENT - remainder
    return size


def measurement_steps():
    """Generator protocol driving one measurement, one download at a time.

    Yields each download's size in bytes; the caller sends back the
    observed duration in seconds (or None for a dead path). Returns a dict
    with an ok flag, the measured bandwidth (mean per-download throughput
    of the timed downloads, 0.0 unless ok), total bytes moved and the
    download count.
    """
    size = RANGE_INCREMENT
    bytes_total = 0
    downloads = 0

    ok = False
    for _ in range(MAX_ADAPTATION_STEPS):
        duration = yield size
        if duration is None or duration <= 0:
            break
        bytes_total += size
        downloads += 1
        if MIN_DURATION_PER_DOWNLOAD <= duration <= MAX_DURATION_PER_DOWNLOAD:
            ok = True
            break
        size = adapt_range(size, duration)

    throughput_sum = 0.0
    if ok:
        for _ in range(DOWNLOADS_PER_MEASUREMENT):
            duration = yield size
            if duration is None or duration <= 0:
                ok = False
                break
            bytes_total += size
            downloads += 1
            throughput_sum += size / duration

    return {"ok": ok,
            "measured_bw": throughput_sum / DOWNLOADS_PER_MEASUREMENT if ok else 0.0,
            "bytes_total": bytes_total, "downloads": downloads}
