import ast
import json
import math
import os
import statistics
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MB, cotormult_topology, sim_config
from torbwsim.bwfile import measurement_interval
from torbwsim.core import InsufficientDataError, MeasurementRecord
from torbwsim import defense
from torbwsim.defense import (
    ProbePlan,
    SuspicionReport,
    plan_probes,
    probe_rows,
    report_to_dict,
    score_suspects,
    verify_shared_resource,
)
from torbwsim.netsim import run_probe, run_simulation

# lexicographic order matches the naming, which the pair-key tests rely on
A, B, C, D, E = ("A" * 40, "B" * 40, "C" * 40, "D" * 40, "E" * 40)


def rec(relay, start, end, bw, ok=True, ba_id="ba0"):
    return MeasurementRecord(
        relay_id=relay, ba_id=ba_id, thread_id=0,
        start_time=start, end_time=end, measured_bw=bw, ok=ok,
    )


def shared_pair_records():
    """A and B measure 100 alone and 50 together: the textbook split."""
    return [
        rec(A, 0, 10, 100.0),
        rec(B, 20, 30, 100.0),
        rec(A, 40, 50, 50.0),
        rec(B, 40, 50, 50.0),
    ]


class TestScoreSuspects:
    def test_shared_pair_scores_half(self):
        report = score_suspects(shared_pair_records())
        assert report.pair_drops == {(A, B): pytest.approx(0.5)}
        assert report.scores[A] == pytest.approx(0.5)
        assert report.scores[B] == pytest.approx(0.5)
        assert report.groups == ((A, B),)
        assert report.insufficient_data == ()

    def test_unusable_assumed_duration_rejected(self):
        # end times only: A and B always end together, C 50 s later
        records = [
            MeasurementRecord(relay_id=relay, ba_id="ba0", thread_id=0,
                              start_time=None, end_time=100.0 * k + offset,
                              measured_bw=50.0)
            for k in range(20) for relay, offset in ((A, 0), (B, 0), (C, 50))
        ]
        assert score_suspects(records, assumed_duration=39.0).insufficient_data == (A, B)
        for duration in (-39.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="duration must be finite and > 0"):
                score_suspects(records, assumed_duration=duration)

    def test_independent_pair_scores_zero(self):
        records = [
            rec(A, 0, 10, 100.0),
            rec(B, 20, 30, 80.0),
            rec(A, 40, 50, 100.0),
            rec(B, 40, 50, 80.0),
        ]
        report = score_suspects(records)
        assert report.pair_drops[(A, B)] == pytest.approx(0.0)
        assert report.groups == ()

    def test_shallow_graze_is_not_co_measurement(self):
        records = [
            rec(A, 0, 10, 100.0),
            rec(B, 9.5, 19.5, 100.0),  # 0.5 s overlap out of 10
        ]
        report = score_suspects(records)
        assert report.pair_drops == {}
        assert report.scores == {A: 0.0, B: 0.0}

    def test_grazed_records_excluded_from_baseline_too(self):
        records = [
            rec(A, 0, 10, 100.0),        # clean solo
            rec(A, 20, 30, 100.0),       # grazed by B below: not solo, not co
            rec(B, 29.5, 39.5, 100.0),
            rec(A, 40, 50, 50.0),
            rec(B, 40, 50, 50.0),
            rec(B, 60, 70, 100.0),       # clean solo
        ]
        report = score_suspects(records)
        assert report.pair_drops[(A, B)] == pytest.approx(0.5)

    def test_transitive_grouping(self):
        records = [
            rec(A, 0, 10, 100.0),
            rec(A, 20, 30, 50.0), rec(B, 20, 30, 50.0),
            rec(A, 40, 50, 80.0), rec(C, 40, 50, 80.0),
            rec(B, 60, 70, 100.0),
            rec(B, 80, 90, 50.0), rec(C, 80, 90, 50.0),
            rec(C, 100, 110, 100.0),
        ]
        report = score_suspects(records)
        # the baseline for a pair is pair-relative, so records co-measured
        # with the third relay still count as "apart" and dilute the mean:
        # drop(A|B) = 1 - 50/90 = 4/9, drop(B|A) = 1 - 50/75 = 1/3
        assert report.pair_drops[(A, B)] == pytest.approx((4 / 9 + 1 / 3) / 2)
        assert report.pair_drops[(B, C)] == pytest.approx((1 / 3 + 4 / 9) / 2)
        assert report.pair_drops[(A, C)] == 0.0
        # A-C alone is under threshold but B bridges the component
        assert report.groups == ((A, B, C),)
        assert report.scores[C] == pytest.approx(7 / 18)

    def test_relay_without_apart_baseline_reported(self):
        records = [
            rec(A, 0, 10, 100.0), rec(C, 0, 10, 50.0),   # C only ever co
            rec(A, 40, 50, 100.0), rec(D, 40, 50, 70.0),
            rec(D, 60, 70, 70.0),
            rec(A, 100, 110, 100.0),
        ]
        report = score_suspects(records)
        assert report.insufficient_data == (C,)
        assert C not in report.scores
        assert report.pair_drops == {(A, D): pytest.approx(0.0)}

    def test_failed_records_ignored(self):
        records = shared_pair_records() + [
            rec(A, 200, 210, 0.0, ok=False),
        ]
        report = score_suspects(records)
        assert report.pair_drops[(A, B)] == pytest.approx(0.5)

    def test_records_without_start_use_assumed_duration(self):
        records = [
            rec(A, None, 100, 50.0), rec(B, None, 100, 50.0),
            rec(A, None, 200, 100.0),
            rec(B, None, 300, 100.0),
        ]
        report = score_suspects(records)
        assert report.pair_drops[(A, B)] == pytest.approx(0.5)

    def test_drop_clamped_to_unit_interval(self):
        records = [
            rec(A, 0, 10, 50.0),
            rec(B, 20, 30, 100.0),
            rec(A, 40, 50, 100.0),   # co bandwidth above the baseline
            rec(B, 40, 50, 120.0),
        ]
        report = score_suspects(records)
        assert report.pair_drops[(A, B)] == 0.0

    def test_group_order_independent_of_hash_seed(self):
        # which relay ends up as a union-find root may follow PYTHONHASHSEED;
        # the order of the groups must not
        script = (
            "from torbwsim.core import MeasurementRecord as R\n"
            "from torbwsim.defense import score_suspects\n"
            "ids = ['%040X' % (i * 7919 + 17) for i in range(6)]\n"
            "records = []\n"
            "for p, pool in enumerate((ids[0::2], ids[1::2])):\n"
            "    for k in range(4):\n"
            "        t = p * 100000 + k * 1000\n"
            "        for j, r in enumerate(pool):\n"
            "            records.append(R(r, 'ba0', j, t + 100 * j, t + 100 * j + 30, 3e7))\n"
            "            records.append(R(r, 'ba0', j, t + 500, t + 530, 1e7))\n"
            "print(score_suspects(records).groups)\n"
        )
        src = os.path.dirname(os.path.dirname(defense.__file__))
        outputs = set()
        for hash_seed in range(10):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        groups = ast.literal_eval(outputs.pop())
        assert [len(g) for g in groups] == [3, 3]

    @pytest.mark.parametrize("long, short", [(A, B), (B, A)],
                             ids=["long-sorts-first", "short-sorts-first"])
    def test_pair_visited_whichever_relay_sorts_first(self, long, short):
        # only the short record is deeply co-measured, and it has no solo
        # baseline: the pair is undecided under either naming
        records = [
            rec(long, 0, 100, 100.0), rec(long, 200, 300, 100.0),
            rec(short, 10, 20, 50.0),
            rec(C, 400, 410, 100.0),
        ]
        report = score_suspects(records)
        assert report.insufficient_data == (A, B)
        assert report.scores == {C: 0.0}
        assert report.pair_drops == {}
        assert report == pairwise_score_suspects(records)

    def test_needs_two_relays(self):
        with pytest.raises(ValueError, match="2 relays"):
            score_suspects([rec(A, 0, 10, 100.0)])

    def test_too_few_relays_names_each_count(self):
        records = [rec(A, 0, 10, 100.0), rec(A, 20, 30, 100.0),
                   rec(B, 0, 10, 0.0, ok=False)]
        with pytest.raises(InsufficientDataError,
                           match=r"at least 2 relays, have 1; %s: 2 records$" % A):
            score_suspects(records)

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            score_suspects(shared_pair_records(), threshold=1.5)

    def test_custom_threshold_blocks_grouping(self):
        report = score_suspects(shared_pair_records(), threshold=0.6)
        assert report.pair_drops[(A, B)] == pytest.approx(0.5)
        assert report.groups == ()


def _overlapping_partners(items):
    """items: (start, end, relay, bw) sorted by start.

    Returns per-item sets of (index, relay, overlap length) for every other
    item whose interval intersects, including zero-length touching.
    """
    partners = [set() for _ in items]
    for i, (start_i, end_i, relay_i, _bw) in enumerate(items):
        for j in range(i + 1, len(items)):
            start_j, end_j, relay_j, _bwj = items[j]
            if start_j > end_i:
                break
            overlap = min(end_i, end_j) - start_j
            partners[i].add((j, relay_j, overlap))
            partners[j].add((i, relay_i, overlap))
    return partners


def pairwise_score_suspects(records, assumed_duration=39.0, threshold=0.3,
                            min_overlap_fraction=0.5):
    """Oracle: score_suspects as it was before the collapsed sweep.

    Every record is its own item, every overlapping pair of items is
    visited, and the means are statistics.fmean over sets of item indices.
    A pair is scored when either relay has co samples against the other.
    """
    if not 0 <= threshold <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    if not 0 < assumed_duration < math.inf:
        raise ValueError("duration must be finite and > 0")
    items = []
    for r in records:
        if not r.ok:
            continue
        start, end = measurement_interval(r, assumed_duration)
        items.append((start, end, r.relay_id, r.measured_bw))
    relays = sorted({relay for _s, _e, relay, _b in items})
    if len(relays) < 2:
        raise ValueError("need successful records for at least 2 relays, have %d%s"
                         % (len(relays), "".join("; %s: %d records" % (r, len(items))
                                                 for r in relays)))
    items.sort(key=lambda t: (t[0], t[1], t[2]))
    partners = _overlapping_partners(items)

    records_of = {r: [] for r in relays}
    for i, (_start, _end, relay, _bw) in enumerate(items):
        records_of[relay].append(i)
    co_idx = {}
    touched_idx = {}
    for i, (start, end, relay, _bw) in enumerate(items):
        duration = end - start
        best = {}
        for _j, rel, overlap in partners[i]:
            if rel != relay:
                best[rel] = max(best.get(rel, 0.0), overlap)
        for rel, overlap in best.items():
            touched_idx.setdefault((relay, rel), set()).add(i)
            if duration <= 0 or overlap / duration >= min_overlap_fraction:
                co_idx.setdefault((relay, rel), set()).add(i)

    def directional(r1, r2):
        co = co_idx.get((r1, r2), set())
        touched = touched_idx.get((r1, r2), set())
        solo = [i for i in records_of[r1] if i not in touched]
        if not co or not solo:
            return None
        co_mean = statistics.fmean(items[i][3] for i in co)
        solo_mean = statistics.fmean(items[i][3] for i in solo)
        if solo_mean <= 0:
            return None
        return min(1.0, max(0.0, 1.0 - co_mean / solo_mean))

    pair_drops = {}
    undecided = set()
    for (r1, r2) in sorted({tuple(sorted(pair)) for pair in co_idx}):
        d12 = directional(r1, r2)
        d21 = directional(r2, r1)
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
    return SuspicionReport(scores=scores, pair_drops=pair_drops, groups=groups,
                           threshold=threshold, insufficient_data=insufficient)


@st.composite
def record_histories(draw):
    """Records on a coarse integer grid, so intervals often touch, nest and
    repeat exactly; some lack a start time, some failed, some are copies."""
    records = []
    for _ in range(draw(st.integers(0, 30))):
        relay = draw(st.sampled_from((A, B, C, D, E)))
        end = float(draw(st.integers(0, 60)))
        start = (end - draw(st.sampled_from((1, 2, 5, 10, 20)))
                 if draw(st.booleans()) else None)
        ok = draw(st.integers(0, 9)) > 0
        bw = draw(st.sampled_from((100.0, 50.0, 25.5, 1e8 / 3, 0.1)))
        record = rec(relay, start, end, bw if ok else 0.0, ok=ok)
        records.extend([record] * draw(st.integers(1, 3)))
    return draw(st.permutations(records))


def _outputs(score, records, **kwargs):
    try:
        report = score(records, **kwargs)
    except ValueError as exc:
        return "error: %s" % exc
    plans = plan_probes(report, 5)
    return (json.dumps(report_to_dict(report), indent=2),
            probe_rows(plans), plans)


class TestCollapsedSweepMatchesPairwise:
    @settings(max_examples=400, deadline=None)
    @given(records=record_histories(),
           assumed_duration=st.sampled_from((39.0, 10.0, 2.0, 0.0, -3.0)),
           threshold=st.sampled_from((0.3, 0.0, 1.0, 0.05)),
           min_overlap_fraction=st.sampled_from((0.5, 0.0, 1.0, 0.25)))
    @example(records=shared_pair_records() * 2, assumed_duration=39.0,
             threshold=0.3, min_overlap_fraction=0.5)
    @example(records=[rec(A, None, 10.0, 100.0), rec(B, None, 10.0, 50.0),
                      rec(A, None, 10.0, 100.0), rec(B, 9.0, 10.0, 50.0),
                      rec(A, None, 50.0, 100.0), rec(B, None, 60.0, 100.0)],
             assumed_duration=0.0, threshold=0.3, min_overlap_fraction=0.5)
    def test_same_report_and_probes(self, records, assumed_duration, threshold,
                                    min_overlap_fraction):
        kwargs = dict(assumed_duration=assumed_duration, threshold=threshold,
                      min_overlap_fraction=min_overlap_fraction)
        assert (_outputs(score_suspects, records, **kwargs)
                == _outputs(pairwise_score_suspects, records, **kwargs))


class TestPlanProbes:
    def _report(self):
        records = [
            rec(A, 0, 10, 100.0),
            rec(A, 20, 30, 50.0), rec(B, 20, 30, 50.0),
            rec(A, 40, 50, 80.0), rec(C, 40, 50, 80.0),
            rec(B, 60, 70, 100.0),
            rec(B, 80, 90, 40.0), rec(C, 80, 90, 40.0),
            rec(C, 100, 110, 100.0),
        ]
        return score_suspects(records)

    def test_worst_pair_first(self):
        plans = plan_probes(self._report(), budget=10)
        assert [(p.relay_a, p.relay_b) for p in plans] == [(B, C), (A, B)]
        # (7/15 + 5/9) / 2, from the two pair-relative directional drops
        assert plans[0].expected_drop == pytest.approx(23 / 45)
        assert [p.scheduled_time for p in plans] == [0.0, 120.0]

    def test_budget_truncates(self):
        plans = plan_probes(self._report(), budget=1)
        assert len(plans) == 1
        assert (plans[0].relay_a, plans[0].relay_b) == (B, C)

    def test_subthreshold_pairs_not_probed(self):
        plans = plan_probes(self._report(), budget=10)
        assert (A, C) not in {(p.relay_a, p.relay_b) for p in plans}

    def test_ties_break_on_ids(self):
        report = score_suspects(shared_pair_records() + [
            rec(C, 120, 130, 100.0),
            rec(C, 140, 150, 50.0), rec(D, 140, 150, 50.0),
            rec(D, 160, 170, 100.0),
        ])
        plans = plan_probes(report, budget=10)
        assert [(p.relay_a, p.relay_b) for p in plans] == [(A, B), (C, D)]

    def test_budget_validated(self):
        with pytest.raises(ValueError, match="budget"):
            plan_probes(self._report(), budget=0)


class TestVerifySharedResource:
    def _probes(self, bw_a, bw_b, ok=True):
        return (
            rec(A, 0, 10, bw_a, ok=ok),
            rec(B, 0, 10, bw_b, ok=ok),
        )

    def test_shared_verdict(self):
        a, b = self._probes(5.0, 5.0)
        verdict = verify_shared_resource(a, b, {A: 10.0, B: 10.0})
        assert verdict.verdict == "shared"
        assert verdict.co_sum == pytest.approx(10.0)
        assert verdict.shared_bound == pytest.approx(12.5)
        assert verdict.independent_bound == pytest.approx(16.0)

    def test_independent_verdict(self):
        a, b = self._probes(10.0, 9.0)
        verdict = verify_shared_resource(a, b, {A: 10.0, B: 10.0})
        assert verdict.verdict == "independent"

    def test_inconclusive_between_bands(self):
        a, b = self._probes(7.0, 7.0)
        verdict = verify_shared_resource(a, b, {A: 10.0, B: 10.0})
        assert verdict.verdict == "inconclusive"
        assert "repeat" in verdict.caveat

    def test_shared_takes_precedence_when_bands_cross(self):
        a, b = self._probes(60.0, 40.0)
        verdict = verify_shared_resource(a, b, {A: 100.0, B: 10.0})
        assert verdict.co_sum <= verdict.shared_bound
        assert verdict.co_sum >= verdict.independent_bound
        assert verdict.verdict == "shared"

    def test_failed_probe_inconclusive(self):
        a, b = self._probes(0.0, 0.0, ok=False)
        verdict = verify_shared_resource(a, b, {A: 10.0, B: 10.0})
        assert verdict.verdict == "inconclusive"
        assert "failed" in verdict.caveat

    def test_missing_baseline_inconclusive(self):
        a, b = self._probes(5.0, 5.0)
        verdict = verify_shared_resource(a, b, {A: 10.0})
        assert verdict.verdict == "inconclusive"
        assert "baseline" in verdict.caveat

    def test_probes_must_overlap_substantially(self):
        a = rec(A, 0, 10, 5.0)
        b = rec(B, 9, 19, 5.0)
        with pytest.raises(ValueError, match="overlap"):
            verify_shared_resource(a, b, {A: 10.0, B: 10.0})

    def test_probes_need_start_times(self):
        a = rec(A, None, 10, 5.0)
        b = rec(B, 0, 10, 5.0)
        with pytest.raises(ValueError, match="start times"):
            verify_shared_resource(a, b, {A: 10.0, B: 10.0})


class TestRendering:
    def test_report_to_dict(self):
        out = report_to_dict(score_suspects(shared_pair_records()))
        assert out["threshold"] == 0.3
        assert out["pair_drops"] == {"%s,%s" % (A, B): pytest.approx(0.5)}
        assert out["groups"] == [[A, B]]
        assert out["insufficient_data"] == []
        assert out["scores"][A] == pytest.approx(0.5)

    def test_probe_rows(self):
        plans = [ProbePlan(relay_a=A, relay_b=B, scheduled_time=12.0,
                           expected_drop=0.51)]
        rows = probe_rows(plans)
        assert rows[0] == ("relay_a", "relay_b", "scheduled_time",
                           "expected_drop")
        assert rows[1] == (A, B, "12.000", "0.510000")


class TestSimulationIntegration:
    def test_cluster_recovered_from_history_and_confirmed_by_probe(self):
        topology, members, load = cotormult_topology(
            member_claim=50 * MB, n_honest=8, prefix="dx",
        )
        cfg = sim_config(topology, user_load=load, threads=2,
                         duration=14400.0, round_budget=900.0, seed=7)
        result = run_simulation(cfg)
        report = score_suspects(result.records)

        member_set = set(members)
        assert any(set(g) == member_set for g in report.groups)
        honest = [r for r in report.scores if r not in member_set]
        assert honest
        assert max(report.scores[r] for r in honest) < report.threshold

        # active confirmation: probe the worst pair simultaneously
        plans = plan_probes(report, budget=1)
        assert plans
        pair = (plans[0].relay_a, plans[0].relay_b)
        assert set(pair) <= member_set
        probe_a, probe_b = run_probe(cfg, pair, seed="confirm")
        solo = {pair[0]: 47.5 * MB, pair[1]: 47.5 * MB}
        verdict = verify_shared_resource(probe_a, probe_b, solo)
        assert verdict.verdict == "shared"
        assert verdict.co_sum == pytest.approx(47.5 * MB)
