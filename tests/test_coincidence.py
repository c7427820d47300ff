import math
import random

import pytest

from conftest import fp
from torbwsim.bwfile import Interval, TimelineEstimate
from torbwsim.coincidence import (
    CoincidenceDistribution,
    coincidence_vs_window,
    count_events,
    distribution_rows,
    expected_inflation,
)
from torbwsim.core import InsufficientDataError

R = {i: fp("relay-%d" % i) for i in range(1, 9)}


def timeline(*spans):
    """spans: (relay_number, start, end) triples."""
    return TimelineEstimate(intervals=tuple(
        Interval(relay_id=R[n], start=float(a), end=float(b))
        for n, a, b in spans
    ))


# one solo measurement, one pair, one three-way chain
MIXED = timeline(
    (4, 0, 10),
    (1, 20, 30), (3, 25, 35),
    (5, 45, 52), (1, 50, 60), (3, 58, 70),
)
MIXED_SET = {R[1], R[3], R[4], R[5]}


class TestCountEvents:
    def test_mixed_event_sizes(self):
        dist = count_events(MIXED, MIXED_SET)
        assert dist.total_measurements == 6
        assert dist.event_counts == {1: 1, 2: 1, 3: 1}
        assert dist.probability(1) == pytest.approx(1 / 6)
        assert dist.probability(2) == pytest.approx(2 / 6)
        assert dist.probability(3) == pytest.approx(3 / 6)
        assert dist.probability(4) == 0.0

    def test_all_solo(self):
        tl = timeline((1, 0, 10), (2, 40, 50), (3, 80, 90))
        dist = count_events(tl, {R[1], R[2], R[3]})
        assert dist.event_counts == {1: 3}
        assert dist.probability(1) == 1.0

    def test_chain_counts_as_one_event(self):
        # A-B and B-C overlap, A-C do not; components, not cliques
        tl = timeline((1, 0, 10), (2, 5, 15), (3, 12, 20))
        dist = count_events(tl, {R[1], R[2], R[3]})
        assert dist.event_counts == {3: 1}

    def test_touching_endpoints_coincide(self):
        tl = timeline((1, 0, 10), (2, 10, 20))
        dist = count_events(tl, {R[1], R[2]})
        assert dist.event_counts == {2: 1}

    def test_relays_outside_set_ignored(self):
        tl = timeline((1, 0, 10), (2, 5, 15))
        dist = count_events(tl, {R[1]})
        assert dist.event_counts == {1: 1}

    def test_window_filters_on_end_times_inclusive(self):
        dist = count_events(MIXED, MIXED_SET, window=(10, 35))
        assert dist.total_measurements == 3
        assert dist.event_counts == {1: 1, 2: 1}
        assert dist.window == (10.0, 35.0)

    def test_default_window_spans_observed_ends(self):
        dist = count_events(MIXED, MIXED_SET)
        assert dist.window == (10.0, 70.0)

    def test_empty_relay_set_rejected(self):
        with pytest.raises(ValueError, match="relay_set"):
            count_events(MIXED, set())

    def test_empty_window_rejected(self):
        with pytest.raises(InsufficientDataError, match="no measurements"):
            count_events(MIXED, MIXED_SET, window=(1000, 2000))

    def test_matches_brute_force_components(self):
        # random timelines against an O(m^2) union-find reference
        rng = random.Random(20240817)
        for _case in range(60):
            spans = []
            for _ in range(rng.randint(1, 40)):
                start = rng.uniform(0, 400)
                spans.append((rng.randint(1, 8), start,
                              start + rng.uniform(0, 60)))
            tl = timeline(*spans)
            relay_set = set(R.values())

            parent = list(range(len(spans)))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for i, (_, a1, b1) in enumerate(spans):
                for j, (_, a2, b2) in enumerate(spans[:i]):
                    if a1 <= b2 and a2 <= b1:
                        parent[find(i)] = find(j)
            comp_sizes = {}
            for i in range(len(spans)):
                root = find(i)
                comp_sizes[root] = comp_sizes.get(root, 0) + 1
            expected = {}
            for size in comp_sizes.values():
                expected[size] = expected.get(size, 0) + 1

            dist = count_events(tl, relay_set)
            assert dist.event_counts == expected, spans


class TestExpectedInflation:
    def test_mixed_fixture(self):
        dist = count_events(MIXED, MIXED_SET)
        # 4 relays, mass 1/6 at each of k=1,2,3 after dividing by k
        assert expected_inflation(dist) == pytest.approx(4 * 0.5)

    def test_all_solo_reaches_set_size(self):
        tl = timeline((1, 0, 10), (2, 40, 50))
        dist = count_events(tl, {R[1], R[2]})
        assert expected_inflation(dist) == pytest.approx(2.0)

    def test_full_overlap_collapses_to_one(self):
        tl = timeline((1, 0, 10), (2, 0, 10), (3, 0, 10))
        dist = count_events(tl, {R[1], R[2], R[3]})
        assert expected_inflation(dist) == pytest.approx(1.0)

    def test_never_exceeds_set_size(self):
        rng = random.Random(7)
        for _case in range(30):
            spans = [
                (rng.randint(1, 5), s, s + rng.uniform(1, 50))
                for s in (rng.uniform(0, 300) for _ in range(25))
            ]
            dist = count_events(timeline(*spans), set(R.values()))
            assert expected_inflation(dist) <= dist.relay_set_size + 1e-9


class TestCoincidenceVsWindow:
    def test_p2_by_window_length(self):
        out = coincidence_vs_window(MIXED, MIXED_SET, [5, 30, 60])
        # anchored at the earliest end (t=10)
        assert out[5] == 0.0
        assert out[30] == pytest.approx(2 / 3)
        assert out[60] == pytest.approx(2 / 6)

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError, match="nonempty"):
            coincidence_vs_window(MIXED, MIXED_SET, [])
        for bad in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and > 0"):
                coincidence_vs_window(MIXED, MIXED_SET, [bad, 100.0])

    def test_no_selected_measurements(self):
        with pytest.raises(InsufficientDataError):
            coincidence_vs_window(MIXED, {R[8]}, [10])


class TestDistributionRows:
    def test_rows_sorted_by_k(self):
        dist = count_events(MIXED, MIXED_SET)
        assert distribution_rows(dist) == [
            (1, 1, pytest.approx(1 / 6)),
            (2, 2, pytest.approx(1 / 3)),
            (3, 3, pytest.approx(1 / 2)),
        ]


class TestDistributionValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            CoincidenceDistribution(
                relay_set_size=2, probabilities={1: 0.5},
                total_measurements=2, window=(0.0, 1.0), event_counts={1: 1},
            )

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            CoincidenceDistribution(
                relay_set_size=2, probabilities={1: 1.5, 2: -0.5},
                total_measurements=2, window=(0.0, 1.0), event_counts={1: 1},
            )

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            CoincidenceDistribution(
                relay_set_size=0, probabilities={1: 1.0},
                total_measurements=1, window=(0.0, 1.0), event_counts={1: 1},
            )
