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


def select_exit(exits, target, rng):
    """Draw an exit for target uniformly from those fast enough.

    An exit qualifies when its advertised bandwidth is at least
    EXIT_SPEED_FACTOR times the target's. exits must be sorted by relay_id,
    so a given rng state always picks the same exit. Returns None, without
    drawing, when no exit qualifies.
    """
    candidates = [
        e for e in exits
        if e.advertised_bw >= EXIT_SPEED_FACTOR * target.advertised_bw
    ]
    return rng.choice(candidates) if candidates else None


def plan_round(cfg: ScannerConfig, relays, rng_seed) -> tuple:
    """Plan one measurement round: every non-exit relay once, shuffled order.

    Exits are drawn by select_exit. Targets with no usable exit are skipped
    with a warning.
    """
    rng = random.Random("%s/plan" % (rng_seed,))
    exits = sorted(
        (r for r in relays if r.role == "exit"), key=lambda r: r.relay_id
    )
    targets = sorted(
        (r for r in relays if r.role != "exit"), key=lambda r: r.relay_id
    )
    plans = []
    for target in targets:
        exit_relay = select_exit(exits, target, rng)
        if exit_relay is None:
            log.warning("%s: no exit at least %.1fx faster than target %s, skipping",
                        cfg.ba_id, EXIT_SPEED_FACTOR, target.relay_id)
            continue
        plans.append((target.relay_id, exit_relay.relay_id))
    rng.shuffle(plans)
    if targets and not plans:
        log.warning("%s: round is empty, no target has a qualifying exit", cfg.ba_id)
    return tuple(MeasurementPlan(target=t, exit=e) for t, e in plans)


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
