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
from bisect import bisect_right
from dataclasses import dataclass

from .bwfile import measurement_interval
from .core import DEFAULT_ASSUMED_DURATION, DEFAULT_THRESHOLD, InsufficientDataError

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
    build_timeline does, and so do a threshold or min_overlap_fraction
    outside [0, 1].

    Archives repeat an entry in every file until the relay is measured
    again, so records first collapse onto their distinct intervals
    (start, end, relay), each carrying the bandwidths of all its records.
    One sweep in start order pairs each interval with every later one that
    starts no later than it ends, touching included: interval i's partners
    run up to bisect_right(starts, end_i, i + 1), so one starting exactly at
    end_i is a partner. The sweep keeps the deepest overlap per partner
    relay. Then one relay at a time totals its bandwidths, all of them and
    per partner the co-measured and the touching ones, and turns them into
    its directional drops. Each interval's partner map is freed once its
    relay has read it, and a pair's two directions are averaged as soon as
    both relays are scored: only the drops still waiting for their partner
    are kept, filed under that partner.

    Every mean counts each record, repeats included, and equals
    statistics.fmean of its bandwidths, math.fsum(xs) / len(xs), bit for
    bit. Each bandwidth is taken as a float, as fsum takes it, and is an
    exact multiple of 1/scale, scale being the largest denominator of
    float.as_integer_ratio() among the call's bandwidths. So each
    interval's bandwidths become one exact integer sum in units of 1/scale
    and a count, and the totals are sums of those; the records apart from
    r2 total all of r1's less those touching r2, exactly. A mean is then
    sum / scale / n: an int's true division rounds the exact quotient once,
    as fsum rounds the exact sum, so each drop is the one fsum gives. Where
    fsum overflowed on its way to a finite sum, the exact sum does not; a
    sum that is itself beyond the largest float raises OverflowError, as
    fsum does.
    """
    if not 0 <= threshold <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    if not 0 <= min_overlap_fraction <= 1:
        raise ValueError("min_overlap_fraction must lie in [0, 1]")
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
    ratio = float.as_integer_ratio
    scale = max(ratio(float(bw))[1] for bws in bws_of.values() for bw in bws)
    for key, bws in bws_of.items():  # each list becomes its exact (sum, count)
        total = 0
        for bw in bws:
            numerator, denominator = ratio(float(bw))
            total += numerator * (scale // denominator)
        bws_of[key] = (total, len(bws))
    items = sorted(bws_of)
    sums = [bws_of[key] for key in items]
    del bws_of
    starts = [start for start, _end, _relay in items]

    deepest = [{} for _ in items]  # per interval: partner relay -> overlap
    for i, (_start_i, end_i, relay_i) in enumerate(items):
        deepest_i = deepest[i]
        for j in range(i + 1, bisect_right(starts, end_i, i + 1)):
            start_j, end_j, relay_j = items[j]
            if relay_j == relay_i:
                continue
            # start_i <= start_j <= end_i and start_j <= end_j, so overlap >= 0
            # and the -1.0 default admits the first one per partner
            overlap = (end_i if end_i < end_j else end_j) - start_j
            if overlap > deepest_i.get(relay_j, -1.0):
                deepest_i[relay_j] = overlap
            deepest_j = deepest[j]
            if overlap > deepest_j.get(relay_i, -1.0):
                deepest_j[relay_i] = overlap

    indices_of = {}  # relay -> its interval indices, in items order
    for i, (_start, _end, relay) in enumerate(items):
        indices_of.setdefault(relay, []).append(i)

    pair_drops = {}
    undecided = set()  # pairs with co samples but a missing baseline
    waiting = {}  # relay not yet scored -> {scored partner: its drop against it}
    scored = set()
    for relay, indices in indices_of.items():
        all_sum = all_n = 0
        co_sums = {}    # partner -> [sum, count] of deeply co-measured records
        near_sums = {}  # partner -> [sum, count] of records it touches
        for i in indices:
            start, end, _relay = items[i]
            bw_sum, n = sums[i]
            all_sum += bw_sum
            all_n += n
            duration = end - start
            for partner, overlap in deepest[i].items():
                near = near_sums.get(partner)
                if near is None:
                    near_sums[partner] = [bw_sum, n]
                else:
                    near[0] += bw_sum
                    near[1] += n
                if duration <= 0 or overlap / duration >= min_overlap_fraction:
                    co = co_sums.get(partner)
                    if co is None:
                        co_sums[partner] = [bw_sum, n]
                    else:
                        co[0] += bw_sum
                        co[1] += n
            deepest[i] = None  # only this relay reads it
        filed = waiting.pop(relay, {})
        for partner, (co_sum, co_n) in co_sums.items():
            near_sum, near_n = near_sums[partner]
            n_solo = all_n - near_n
            drop = None  # without a baseline
            if n_solo:
                solo_mean = (all_sum - near_sum) / scale / n_solo
                if solo_mean > 0:
                    co_mean = co_sum / scale / co_n
                    drop = min(1.0, max(0.0, 1.0 - co_mean / solo_mean))
            if partner not in scored:
                waiting.setdefault(partner, {})[relay] = drop
                continue
            other = filed.pop(partner, None)
            pair = (relay, partner) if relay < partner else (partner, relay)
            if drop is None or other is None:
                undecided.add(pair)
            else:
                pair_drops[pair] = (drop + other) / 2.0
        # partners with co samples against this relay, but not it against them
        undecided.update((p, relay) if p < relay else (relay, p) for p in filed)
        scored.add(relay)

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
    pair_drops = report.pair_drops
    return {
        "threshold": report.threshold,
        "scores": dict(sorted(report.scores.items())),
        # pairs are distinct, so sorting the keys alone gives the same order
        "pair_drops": {"%s,%s" % pair: pair_drops[pair] for pair in sorted(pair_drops)},
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
