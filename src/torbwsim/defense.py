"""Co-measurement countermeasure analytics.

Relays backed by a shared pot betray themselves under simultaneous
measurement: each one's measured bandwidth drops by roughly the split
factor, while genuinely independent relays measure the same alone or
together. These helpers score that drop from historical records, group
suspects, schedule active co-probes for the worst pairs, and turn a probe
outcome into a shared/independent verdict.

Scoring places records on time through bwfile.measurement_interval, the
rule the coincidence timeline uses: a record's true start time when it
carries one, else an assumed duration ending at end_time.
"""

import math
from dataclasses import dataclass

from .bwfile import DEFAULT_ASSUMED_DURATION, measurement_interval
from .core import InsufficientDataError

DEFAULT_THRESHOLD = 0.3
SHARED_BAND_FACTOR = 1.25
INDEPENDENT_BAND_FACTOR = 0.8
DEFAULT_PROBE_SPACING = 120.0


@dataclass(frozen=True)
class SuspicionReport:
    scores: dict            # relay -> max symmetric pair drop, in [0, 1]
    pair_drops: dict        # (r1, r2) sorted tuple -> symmetric drop
    groups: tuple           # connected components at threshold, size >= 2
    threshold: float
    insufficient_data: tuple  # relays with no solo baseline


@dataclass(frozen=True)
class ProbePlan:
    relay_a: str
    relay_b: str
    scheduled_time: float
    expected_drop: float


@dataclass(frozen=True)
class VerificationVerdict:
    verdict: str            # shared | independent | inconclusive
    co_sum: float
    shared_bound: float
    independent_bound: float
    caveat: str = "single probe pair; repeat probes before acting"


def score_suspects(records,
                   assumed_duration: float = DEFAULT_ASSUMED_DURATION,
                   threshold: float = DEFAULT_THRESHOLD,
                   min_overlap_fraction: float = 0.5) -> SuspicionReport:
    """Score relays by bandwidth drop under co-measurement.

    drop(r1|r2) = 1 - mean(bw of r1 while co-measured with r2)
                    / mean(bw of r1 measured apart from r2), clamped to
    [0, 1]. The baseline is pair-relative: a busy multi-thread scanner
    leaves almost no measurement globally alone, but overlap with relays on
    unrelated hosts does not move r1's number, so "apart" means every r1
    record with zero overlap against r2. A record only counts as co-measured
    when the overlap covers at least min_overlap_fraction of it; a brief
    graze at the edge splits capacity for a second or two and barely moves
    the mean, so grazes are left out of both sides. A pair is considered
    once either relay has a co-measured record against the other, whichever
    sorts first. Its symmetric drop is the mean of both directions and
    needs co samples plus a baseline on each side. A relay's score is its
    worst symmetric drop; relays that are co-measured yet never observed
    apart from any partner have no usable baseline and are reported
    separately, excluded from grouping. Successful records of fewer than
    two relays raise InsufficientDataError, which names each relay's count;
    an assumed_duration that is not finite and > 0 raises ValueError, as
    build_timeline does.

    Archives repeat an entry in every file until the relay is measured
    again, so records first collapse onto their distinct intervals
    (start, end, relay), each carrying the bandwidths of all its records.
    One sweep in start order pairs each interval with every later one that
    starts no later than it ends, touching included, and keeps the deepest
    overlap per partner relay. Then one relay at a time gathers its
    bandwidths, all of them and per partner the co-measured and the
    touching ones, and turns them into its directional drops, so only that
    relay's lists are alive at once. Every mean counts each record, repeats
    included, and is math.fsum(xs) / len(xs), which is what
    statistics.fmean computes; fsum rounds the exact sum once, so the order
    of its inputs cannot change a mean. The records apart from r2 are all
    of r1's less those touching r2, so their sum is taken as the fsum of
    all of r1's bandwidths and the negated touching ones, which equals the
    fsum of the records apart, for the finite bandwidths MeasurementRecord
    admits.
    """
    if not 0 <= threshold <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    if not 0 < assumed_duration < math.inf:
        raise ValueError("duration must be finite and > 0")
    bws_of = {}  # (start, end, relay) -> bandwidths of its records
    for rec in records:
        if not rec.ok:
            continue
        start, end = measurement_interval(rec, assumed_duration)
        bws_of.setdefault((start, end, rec.relay_id), []).append(rec.measured_bw)
    relays = sorted({relay for _s, _e, relay in bws_of})
    if len(relays) < 2:
        n_ok = sum(map(len, bws_of.values()))  # all of the one relay's, if any
        raise InsufficientDataError(
            "need successful records for at least 2 relays, have %d%s"
            % (len(relays), "".join("; %s: %d records" % (r, n_ok) for r in relays)))
    items = sorted(bws_of)

    deepest = [{} for _ in items]  # per interval: partner relay -> overlap
    for i, (start_i, end_i, relay_i) in enumerate(items):
        deepest_i = deepest[i]
        for j in range(i + 1, len(items)):
            start_j, end_j, relay_j = items[j]
            if start_j > end_i:
                break
            if relay_j == relay_i:
                continue
            overlap = min(end_i, end_j) - start_j
            deepest_i[relay_j] = max(deepest_i.get(relay_j, 0.0), overlap)
            deepest_j = deepest[j]
            deepest_j[relay_i] = max(deepest_j.get(relay_i, 0.0), overlap)

    indices_of = {}  # relay -> its interval indices, in items order
    for i, (_start, _end, relay) in enumerate(items):
        indices_of.setdefault(relay, []).append(i)

    drops = {}  # (relay, partner) with co samples -> drop, None without baseline
    for relay, indices in indices_of.items():
        all_bws = []
        co_bws = {}    # partner -> bandwidths of deeply co-measured records
        near_bws = {}  # partner -> negated bandwidths of records it touches
        for i in indices:
            start, end, _relay = items[i]
            values = bws_of[items[i]]
            negated = [-bw for bw in values]
            all_bws.extend(values)
            duration = end - start
            for partner, overlap in deepest[i].items():
                near_bws.setdefault(partner, []).extend(negated)
                if duration <= 0 or overlap / duration >= min_overlap_fraction:
                    co_bws.setdefault(partner, []).extend(values)
        for partner, co in co_bws.items():
            near = near_bws[partner]
            n_solo = len(all_bws) - len(near)
            drop = None
            if n_solo:
                solo_mean = math.fsum(all_bws + near) / n_solo
                if solo_mean > 0:
                    co_mean = math.fsum(co) / len(co)
                    drop = min(1.0, max(0.0, 1.0 - co_mean / solo_mean))
            drops[relay, partner] = drop

    pair_drops = {}
    undecided = set()  # pairs with co samples but a missing baseline
    for r1, r2 in drops:
        if r1 > r2:
            if (r2, r1) in drops:
                continue  # visited from (r2, r1)
            r1, r2 = r2, r1
        d12 = drops.get((r1, r2))
        d21 = drops.get((r2, r1))
        if d12 is None or d21 is None:
            undecided.add((r1, r2))
            continue
        pair_drops[(r1, r2)] = (d12 + d21) / 2.0

    has_pair = {r for pair in pair_drops for r in pair}
    insufficient = tuple(
        r for r in relays
        if r not in has_pair and any(r in pair for pair in undecided)
    )
    scores = {r: 0.0 for r in relays if r not in insufficient}
    for (r1, r2), drop in pair_drops.items():
        scores[r1] = max(scores[r1], drop)
        scores[r2] = max(scores[r2], drop)

    parent = {r: r for r in scores}

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for (r1, r2), drop in pair_drops.items():
        if drop >= threshold:
            parent[find(r1)] = find(r2)
    components = {}
    for r in scores:
        components.setdefault(find(r), []).append(r)
    groups = tuple(sorted(
        tuple(sorted(members)) for members in components.values()
        if len(members) >= 2
    ))
    return SuspicionReport(
        scores=scores,
        pair_drops=pair_drops,
        groups=groups,
        threshold=threshold,
        insufficient_data=insufficient,
    )


def plan_probes(report: SuspicionReport, budget: int) -> list:
    """Schedule one simultaneous probe per suspect pair, worst drop first.

    Probes start at time 0, DEFAULT_PROBE_SPACING apart. Only pairs at or
    above the report threshold are probed. Ties break on node ids so plans
    are reproducible.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    ranked = sorted(
        (
            (pair, drop) for pair, drop in report.pair_drops.items()
            if drop >= report.threshold
        ),
        key=lambda item: (-item[1], item[0]),
    )
    return [
        ProbePlan(
            relay_a=pair[0],
            relay_b=pair[1],
            scheduled_time=i * DEFAULT_PROBE_SPACING,
            expected_drop=drop,
        )
        for i, (pair, drop) in enumerate(ranked[:budget])
    ]


def verify_shared_resource(probe_a, probe_b, solo_baselines: dict) -> VerificationVerdict:
    """Judge one simultaneous probe pair against solo baselines.

    shared: the pair together moved no more than SHARED_BAND_FACTOR times
    the better solo rate, i.e. they appear to drain one pot. independent:
    the pair together kept at least INDEPENDENT_BAND_FACTOR of the sum of
    solo rates. The bands can both match for skewed baselines; shared takes
    precedence, then independent, else inconclusive.
    """
    if probe_a.start_time is None or probe_b.start_time is None:
        raise ValueError("probe records must carry start times")
    overlap = min(probe_a.end_time, probe_b.end_time) - max(
        probe_a.start_time, probe_b.start_time
    )
    if overlap < 0.5 * probe_a.duration or overlap < 0.5 * probe_b.duration:
        raise ValueError("probes must overlap by at least half their duration")

    def _invalid(reason):
        return VerificationVerdict(
            verdict="inconclusive", co_sum=0.0, shared_bound=0.0,
            independent_bound=0.0, caveat=reason,
        )

    if not (probe_a.ok and probe_b.ok):
        return _invalid("probe measurement failed")
    solo_a = solo_baselines.get(probe_a.relay_id)
    solo_b = solo_baselines.get(probe_b.relay_id)
    if not solo_a or not solo_b or solo_a <= 0 or solo_b <= 0:
        return _invalid("missing solo baseline")

    co_sum = probe_a.measured_bw + probe_b.measured_bw
    shared_bound = SHARED_BAND_FACTOR * max(solo_a, solo_b)
    independent_bound = INDEPENDENT_BAND_FACTOR * (solo_a + solo_b)
    if co_sum <= shared_bound:
        verdict = "shared"
    elif co_sum >= independent_bound:
        verdict = "independent"
    else:
        verdict = "inconclusive"
    return VerificationVerdict(
        verdict=verdict,
        co_sum=co_sum,
        shared_bound=shared_bound,
        independent_bound=independent_bound,
    )


def report_to_dict(report: SuspicionReport) -> dict:
    """JSON-friendly rendering of a SuspicionReport."""
    return {
        "threshold": report.threshold,
        "scores": dict(sorted(report.scores.items())),
        "pair_drops": {
            "%s,%s" % pair: drop
            for pair, drop in sorted(report.pair_drops.items())
        },
        "groups": [list(g) for g in report.groups],
        "insufficient_data": list(report.insufficient_data),
    }


def probe_rows(plans) -> list:
    """CSV rows for a probe plan, header first."""
    rows = [("relay_a", "relay_b", "scheduled_time", "expected_drop")]
    rows.extend(
        (p.relay_a, p.relay_b, "%.3f" % p.scheduled_time, "%.6f" % p.expected_drop)
        for p in plans
    )
    return rows
