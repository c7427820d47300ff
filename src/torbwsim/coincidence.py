"""Co-measurement coincidence analysis over reconstructed timelines.

Relays that share the capacity pot behind an inflated consensus weight only
keep the full weight while they are measured alone. Whenever two or more of
them are measured in overlapping intervals they split the pot, so the rate
of k-way coincidence events directly bounds the achievable inflation.

An event is a connected component of the interval-overlap graph: interval A
reaches interval B if they intersect, with zero-length touching counted as
overlap. Components, not cliques: a chain A-B, B-C groups all three even if
A and C never overlap directly. On a line this makes events exactly the
maximal runs of intervals whose union is contiguous, which a single sweep
finds in O(m log m).
"""

import math
from dataclasses import dataclass

from .core import ConfigError, InsufficientDataError, is_fingerprint


@dataclass(frozen=True)
class CoincidenceDistribution:
    """How measurements of a relay set distribute over event sizes.

    probabilities[k] is the fraction of measurements that belong to a
    size-k event (so a size-3 event contributes three measurements to k=3).
    """

    relay_set_size: int
    probabilities: dict
    total_measurements: int
    window: tuple
    event_counts: dict  # k -> number of events of that size

    def __post_init__(self):
        if self.relay_set_size < 1:
            raise ValueError("relay_set_size must be >= 1")
        if self.total_measurements < 1:
            raise ValueError("total_measurements must be >= 1")
        mass = sum(self.probabilities.values())
        if not math.isclose(mass, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError("probabilities sum to %r, expected 1" % mass)
        if any(p < 0 for p in self.probabilities.values()):
            raise ValueError("negative probability mass")

    def probability(self, k: int) -> float:
        return self.probabilities.get(k, 0.0)


def load_relay_set(path: str) -> set:
    """Fingerprints listed one per line; blanks, one leading $ and case are
    forgiven, anything else raises ConfigError naming the line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read relays file: %s" % exc)
    relay_set = set()
    for lineno, line in enumerate(lines, 1):
        token = line.strip().removeprefix("$").upper()
        if not token:
            continue
        if not is_fingerprint(token):
            raise ConfigError("%s:%d: not a relay fingerprint: %r"
                              % (path, lineno, line.strip()))
        relay_set.add(token)
    if not relay_set:
        raise ConfigError("relays file %s lists no relays" % path)
    return relay_set


def _selected_intervals(timeline, relay_set, window):
    if not relay_set:
        raise ValueError("relay_set must be nonempty")
    chosen = [iv for iv in timeline.intervals if iv.relay_id in relay_set]
    if window is not None:
        lo, hi = window
        chosen = [iv for iv in chosen if lo <= iv.end <= hi]
    return chosen


def count_events(timeline, relay_set, window=None) -> CoincidenceDistribution:
    """Classify every measurement of the relay set by its event size.

    window is an inclusive (start, end) pair filtering on measurement end
    times; None keeps everything. Returns the k-way distribution, where
    probabilities(k) = measurements in size-k events / total measurements.
    """
    chosen = _selected_intervals(timeline, relay_set, window)
    if not chosen:
        raise InsufficientDataError("no measurements in window")
    chosen.sort(key=lambda iv: (iv.start, iv.end))

    sizes = []      # one entry per event
    run = 0
    reach = None    # max end of the open component
    for iv in chosen:
        if run and iv.start <= reach:
            run += 1
            reach = max(reach, iv.end)
        else:
            if run:
                sizes.append(run)
            run = 1
            reach = iv.end
    sizes.append(run)

    total = len(chosen)
    event_counts = {}
    for k in sizes:
        event_counts[k] = event_counts.get(k, 0) + 1
    probabilities = {k: k * c / total for k, c in sorted(event_counts.items())}
    if window is None:
        window = (min(iv.end for iv in chosen), max(iv.end for iv in chosen))
    return CoincidenceDistribution(
        relay_set_size=len(relay_set),
        probabilities=probabilities,
        total_measurements=total,
        window=(float(window[0]), float(window[1])),
        event_counts=event_counts,
    )


def expected_inflation(dist: CoincidenceDistribution) -> float:
    """n relays sharing one pot: a size-k event contributes 1/k per relay.

    Equals n when every measurement is solo and decays as coincidence mass
    moves to larger k; never exceeds n.
    """
    return dist.relay_set_size * sum(
        p / k for k, p in dist.probabilities.items()
    )


def coincidence_vs_window(timeline, relay_set, windows) -> dict:
    """P(2) as a function of observation-window length.

    Each window length w is anchored at the earliest selected measurement
    end, truncating the data to ends in [t0, t0 + w]. Windows that contain
    no measurements are omitted from the result rather than reported as 0.
    """
    if not windows:
        raise ValueError("windows must be nonempty")
    chosen = _selected_intervals(timeline, relay_set, None)
    if not chosen:
        raise InsufficientDataError("no measurements in window")
    t0 = min(iv.end for iv in chosen)
    out = {}
    for w in windows:
        if not 0 < w < math.inf:
            raise ValueError("window lengths must be finite and > 0, got %r" % (w,))
        try:
            dist = count_events(timeline, relay_set, window=(t0, t0 + w))
        except InsufficientDataError:
            continue
        out[w] = dist.probability(2)
    return out


def distribution_rows(dist: CoincidenceDistribution):
    """Table rows (k, measurement count, probability) for CSV/JSON output."""
    return [
        (k, k * dist.event_counts[k], dist.probabilities[k])
        for k in sorted(dist.event_counts)
    ]
