import logging
import logging.handlers
import math
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MB, fp
from torbwsim.core import RelaySpec
from torbwsim.scanner import (
    DOWNLOADS_PER_MEASUREMENT,
    EXIT_SPEED_FACTOR,
    MAX_ADAPTATION_STEPS,
    MIN_DURATION_PER_DOWNLOAD,
    MeasurementPlan,
    ScannerConfig,
    adapt_range,
    exit_candidates,
    measurement_steps,
    plan_round,
)
from torbwsim.units import GIB, MIB


class TestAdaptRange:
    def test_doubles_below_band(self):
        assert adapt_range(16 * MIB, 2.0) == 32 * MIB

    def test_halves_above_band(self):
        assert adapt_range(64 * MIB, 12.0) == 32 * MIB

    def test_in_band_unchanged(self):
        for d in (5.0, 7.5, 10.0):
            assert adapt_range(64 * MIB, d) == 64 * MIB

    def test_clamps_to_minimum_increment(self):
        assert adapt_range(16 * MIB, 60.0) == 16 * MIB

    def test_clamps_to_max_file(self):
        assert adapt_range(GIB, 1.0) == GIB

    def test_halving_rounds_up_to_increment(self):
        # 48 MiB halves to 24 MiB, which is not a legal range; next multiple up
        assert adapt_range(48 * MIB, 12.0) == 32 * MIB


def run_steps(rates):
    """Drive measurement_steps with a per-download rate schedule (bytes/s).

    The schedule repeats its last value. Returns (outcome, observed sizes,
    observed durations).
    """
    gen = measurement_steps()
    sizes, durations = [], []
    size = gen.send(None)
    while True:
        rate = rates[min(len(sizes), len(rates) - 1)]
        sizes.append(size)
        durations.append(size / rate if rate > 0 else None)
        try:
            size = gen.send(durations[-1])
        except StopIteration as stop:
            return stop.value, sizes, durations


class TestMeasurementSteps:
    def test_adaptation_ladder_at_25_mbps(self):
        # hand ladder: 16 MiB/25 MB = 0.67 s, doubling to 128 MiB = 5.37 s
        # in band, then five timed downloads at that size
        outcome, sizes, durations = run_steps([25 * MB])
        assert set(outcome) == {"ok", "measured_bw", "bytes_total", "downloads"}
        assert outcome["ok"]
        assert sizes == [16 * MIB, 32 * MIB, 64 * MIB, 128 * MIB] + [128 * MIB] * 5
        assert outcome["downloads"] == 9
        assert outcome["bytes_total"] == sum(sizes)
        for d in durations[-DOWNLOADS_PER_MEASUREMENT:]:
            assert d == pytest.approx(128 * MIB / (25 * MB))

    def test_first_download_already_in_band(self):
        # 16 MiB at 2 MB/s is 8.4 s, inside the band immediately
        outcome, sizes, _durations = run_steps([2 * MB])
        assert outcome["ok"]
        assert sizes == [16 * MIB] * 6
        assert outcome["downloads"] == 6

    def test_in_band_measurement_lasts_at_least_25s(self):
        _outcome, _sizes, durations = run_steps([25 * MB])
        total = sum(durations[-DOWNLOADS_PER_MEASUREMENT:])
        assert total >= 5 * MIN_DURATION_PER_DOWNLOAD == 25.0

    def test_dead_path_fails(self):
        outcome, sizes, _durations = run_steps([0.0])
        assert not outcome["ok"]
        assert sizes == [16 * MIB]

    def test_mean_of_per_download_throughputs(self):
        # the rate flips between downloads: the published number is the mean
        # of per-download throughputs, not total bytes over total time
        rates = [2 * MB, 8 * MB] * 5
        outcome, sizes, durations = run_steps(rates)
        assert outcome["ok"]
        # 16 MiB at 2 MB/s is in band at once; the five timed downloads
        # then see 8, 2, 8, 2, 8 MB/s
        assert len(sizes) == 6
        expected_mean = statistics.fmean(rates[1:6])
        total_rate = outcome["bytes_total"] / sum(durations)
        timed = [size / d for size, d in zip(sizes[1:], durations[1:])]
        assert outcome["measured_bw"] == sum(timed) / len(timed)
        assert outcome["measured_bw"] == pytest.approx(expected_mean)
        assert outcome["measured_bw"] != pytest.approx(total_rate, rel=1e-3)

    @pytest.mark.parametrize("rates", [[0.0], [25 * MB] * 4 + [0.0]])
    def test_failed_measurement_measures_zero(self, rates):
        outcome, _sizes, _durations = run_steps(rates)
        assert not outcome["ok"]
        assert outcome["measured_bw"] == 0.0

    def test_unstable_path_exhausts_adaptation_budget(self):
        # alternating fast/slow keeps the size bouncing across the band and
        # never settles; the scanner must give up after the step cap
        rates = [200 * MB, 1 * MB] * 20
        outcome, sizes, _durations = run_steps(rates)
        assert not outcome["ok"]
        assert len(sizes) <= MAX_ADAPTATION_STEPS

    def test_too_slow_path_fails_at_floor(self):
        # 16 MiB at 0.1 MB/s is 168 s; halving cannot go below one increment
        outcome, sizes, _durations = run_steps([0.1 * MB])
        assert not outcome["ok"]
        assert all(s == 16 * MIB for s in sizes)
        assert len(sizes) == MAX_ADAPTATION_STEPS


def _relays(n_targets=1, target_bw=10 * MB, exit_bws=(20 * MB, 25 * MB, 30 * MB)):
    relays = [
        RelaySpec(relay_id=fp("t%d" % i), host_id="h", advertised_bw=target_bw)
        for i in range(n_targets)
    ]
    relays += [
        RelaySpec(relay_id=fp("e%d" % i), host_id="h", advertised_bw=bw,
                  role="exit")
        for i, bw in enumerate(exit_bws)
    ]
    return relays


class TestPlanRound:
    def test_every_non_exit_exactly_once(self):
        relays = _relays(n_targets=7)
        plans = plan_round(ScannerConfig(), relays, rng_seed="s")
        targets = [p.target for p in plans]
        assert sorted(targets) == sorted(r.relay_id for r in relays
                                         if r.role != "exit")
        assert len(set(targets)) == 7

    def test_exits_never_targets(self):
        relays = _relays(n_targets=3)
        plans = plan_round(ScannerConfig(), relays, rng_seed="s")
        exit_ids = {r.relay_id for r in relays if r.role == "exit"}
        assert not exit_ids & {p.target for p in plans}

    def test_exit_speed_rule(self):
        # only exits at >= 2x the target's advertised bandwidth qualify
        relays = _relays(target_bw=10 * MB, exit_bws=(19 * MB, 20 * MB))
        plans = plan_round(ScannerConfig(), relays, rng_seed="s")
        assert plans[0].exit == fp("e1")

    def test_exit_choice_uniform(self):
        relays = _relays(target_bw=10 * MB, exit_bws=(20 * MB, 25 * MB, 30 * MB))
        counts = {fp("e0"): 0, fp("e1"): 0, fp("e2"): 0}
        n = 10_000
        for k in range(n):
            plans = plan_round(ScannerConfig(), relays, rng_seed="u/%d" % k)
            counts[plans[0].exit] += 1
        expected = n / 3
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        for exit_id, count in counts.items():
            assert abs(count - expected) <= 3 * sigma, (exit_id, count)

    def test_shuffle_varies_order(self):
        relays = _relays(n_targets=12)
        first = plan_round(ScannerConfig(), relays, rng_seed="a")
        second = plan_round(ScannerConfig(), relays, rng_seed="b")
        assert [p.target for p in first] != [p.target for p in second]

    def test_deterministic_for_seed(self):
        relays = _relays(n_targets=12)
        assert plan_round(ScannerConfig(), relays, "x") == plan_round(
            ScannerConfig(), relays, "x"
        )

    def test_unmeasurable_target_skipped_with_warning(self, caplog):
        relays = _relays(target_bw=100 * MB, exit_bws=(20 * MB,))
        with caplog.at_level(logging.WARNING):
            plans = plan_round(ScannerConfig(), relays, rng_seed="s")
        assert plans == ()
        assert any("skipping" in r.message for r in caplog.records)


def scan_plan_round(relays, rng_seed):
    """Oracle: plan_round as it was, scanning every exit for every target.
    Returns the plans and the targets skipped for want of an exit."""
    rng = random.Random("%s/plan" % (rng_seed,))
    exits = sorted(
        (r for r in relays if r.role == "exit"), key=lambda r: r.relay_id
    )
    targets = sorted(
        (r for r in relays if r.role != "exit"), key=lambda r: r.relay_id
    )
    plans, skipped = [], []
    for target in targets:
        candidates = [
            e for e in exits
            if e.advertised_bw >= EXIT_SPEED_FACTOR * target.advertised_bw
        ]
        if not candidates:
            skipped.append(target.relay_id)
            continue
        plans.append((target.relay_id, rng.choice(candidates).relay_id))
    rng.shuffle(plans)
    return tuple(MeasurementPlan(target=t, exit=e) for t, e in plans), skipped


@st.composite
def round_relays(draw):
    """Targets and exits whose bandwidths come from a few values, so exits
    tie, a target's threshold can equal an exit's bandwidth exactly, and a
    target can be too fast for every exit; listed in a drawn order."""
    exit_bws = draw(st.lists(st.sampled_from((10, 20, 20.5, 30, 40)), max_size=8))
    target_bws = draw(st.lists(st.sampled_from((5, 7.3, 10, 10.1, 15, 20, 25)),
                               min_size=1, max_size=12))
    relays = [
        RelaySpec(relay_id=fp("e%d" % i), host_id="h", advertised_bw=bw * MB,
                  role="exit")
        for i, bw in enumerate(exit_bws)
    ] + [
        RelaySpec(relay_id=fp("t%d" % i), host_id="h", advertised_bw=bw * MB)
        for i, bw in enumerate(target_bws)
    ]
    return draw(st.permutations(relays))


class TestPlanRoundMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(relays=round_relays())
    @example(relays=_relays(n_targets=2, target_bw=10 * MB,
                            exit_bws=(20 * MB, 20 * MB, 19 * MB)))
    @example(relays=_relays(n_targets=3, target_bw=25 * MB,
                            exit_bws=(20 * MB, 40 * MB)))
    def test_plans_and_warnings_equal_the_scan(self, relays):
        handler = logging.handlers.BufferingHandler(10_000)
        log = logging.getLogger("torbwsim.scanner")
        log.addHandler(handler)
        try:
            for seed in range(5):
                handler.flush()
                plans = plan_round(ScannerConfig(), relays, rng_seed=seed)
                want, skipped = scan_plan_round(relays, rng_seed=seed)
                assert plans == want
                messages = [r.getMessage() for r in handler.buffer]
                assert [m for m in messages if "skipping" in m] == [
                    "ba0: no exit at least 2.0x faster than target %s, skipping"
                    % relay_id for relay_id in skipped]
                assert any("round is empty" in m for m in messages) == (
                    not want and bool(skipped))
        finally:
            log.removeHandler(handler)

    def test_thresholds_below_the_same_exits_share_one_list(self):
        relays = _relays(exit_bws=(20 * MB, 30 * MB, 30 * MB, 40 * MB))
        candidates = exit_candidates(r for r in relays if r.role == "exit")

        def target(bw):
            return RelaySpec(relay_id=fp("t"), host_id="h", advertised_bw=bw)

        # thresholds 22, 30 and 20 MB: one list has both 30 MB exits
        assert candidates(target(11 * MB)) is candidates(target(15 * MB))
        assert sorted(e.advertised_bw for e in candidates(target(15 * MB))) == [
            30 * MB, 30 * MB, 40 * MB]
        assert len(candidates(target(10 * MB))) == 4
        assert candidates(target(21 * MB)) == []


class TestScannerConfig:
    @pytest.mark.parametrize("threads", [0, 9])
    def test_thread_bounds(self, threads):
        with pytest.raises(ValueError):
            ScannerConfig(threads=threads)
