import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MB,
    cotormult_topology,
    detormult_topology,
    fp,
    honest_farm,
    sim_config,
)
from torbwsim.core import (
    POLICIES,
    Cluster,
    ClusterTopology,
    ConfigError,
    ConsensusSnapshot,
    HostSpec,
    MeasurementRecord,
    RelaySpec,
    SimulationError,
    Topology,
)
from torbwsim import netsim
from torbwsim.netsim import (
    DetectorModel,
    FlowState,
    SimResult,
    _baseline_bw,
    _fold_consensus,
    _max_min_fill,
    available_bandwidth,
    inflation_factor,
    run_probe,
    run_simulation,
)
from torbwsim.units import MIB


MISSED = math.inf  # the detect time of a measurement the detector misses


def shared_host_topology(policy_a="drop_on_measure"):
    """Two relays on one 50 MB host: A (adv 30, policy under test), B honest."""
    hosts = {
        "h": HostSpec(host_id="h", capacity=50 * MB),
        "hx": HostSpec(host_id="hx", capacity=400 * MB),
    }
    relays = {
        fp("A"): RelaySpec(relay_id=fp("A"), host_id="h",
                           advertised_bw=30 * MB, policy=policy_a),
        fp("B"): RelaySpec(relay_id=fp("B"), host_id="h",
                           advertised_bw=20 * MB),
        fp("X"): RelaySpec(relay_id=fp("X"), host_id="hx",
                           advertised_bw=200 * MB, role="exit"),
    }
    load = {fp("A"): 30 * MB, fp("B"): 20 * MB}
    return Topology(relays=relays, hosts=hosts), load


def oracle_allocations(state, now):
    """Whole-network max-min allocation, transcribed from the simulator as it
    was before allocation became per-host: every host solved at once, with
    the paused user flows found by scanning every relay."""
    relays = state.topology.relays
    dropped = set()
    for (relay_id, _ba_id), detect_time in state.flows.items():
        if now < detect_time:
            continue
        relay = relays[relay_id]
        if relay.policy == "drop_on_measure":
            dropped.add(relay.relay_id)
        elif relay.policy == "cotormult_member":
            for other in relays.values():
                if (other.host_id == relay.host_id
                        and other.policy == "cotormult_member"):
                    dropped.add(other.relay_id)
    for relay in relays.values():
        if relay.host_id in state.fp_suppressed_hosts:
            dropped.add(relay.relay_id)
    demands_by_host = {}
    for key, detect_time in state.flows.items():
        relay = relays[key[0]]
        host = relay.host_id
        if relay.policy == "detormult_member" and now >= detect_time:
            host = state.topology.clusters.dedicated_server
        demands_by_host.setdefault(host, []).append(
            (("m",) + key, relay.advertised_bw)
        )
    for relay_id, load in state.user_load.items():
        if load <= 0 or relay_id in dropped:
            continue
        relay = relays[relay_id]
        demands_by_host.setdefault(relay.host_id, []).append(
            (("u", relay_id), min(load, relay.advertised_bw))
        )
    alloc = {}
    for host_id, demands in demands_by_host.items():
        pool = state.topology.hosts[host_id].usable_capacity
        alloc.update(_max_min_fill(pool, demands))
    return alloc


def oracle_available_bandwidth(state, relay_id, now):
    active = [key for key in state.flows if key[0] == relay_id]
    if active:
        alloc = oracle_allocations(state, now)
        return max(alloc[("m",) + key] for key in active)
    state.add_flow(relay_id, "__probe__", now)
    try:
        return oracle_allocations(state, now)[("m", relay_id, "__probe__")]
    finally:
        state.remove_flow(relay_id, "__probe__")


@st.composite
def flow_states(draw):
    """A small network mixing all four policies, with flows at one instant.

    Relay hosts share a dedicated server; a flow's detect time may lie
    before or after now, or be MISSED; several scanners may measure one
    relay; any host may be suppressed by a false positive.
    """
    hosts = {"ded": HostSpec(
        host_id="ded", capacity=draw(st.integers(5, 100)) * MB,
        kind="dedicated_server", efficiency=draw(st.sampled_from((0.22, 1.0))),
    )}
    n_hosts = draw(st.integers(1, 4))
    for h in range(n_hosts):
        hosts["h%d" % h] = HostSpec(
            host_id="h%d" % h, capacity=draw(st.integers(5, 100)) * MB,
            efficiency=draw(st.sampled_from((1.0, 0.95, 0.5))),
        )
    relays, load, members = {}, {}, {}
    for i in range(draw(st.integers(1, 8))):
        relay = RelaySpec(
            relay_id=fp("r%d" % i),
            host_id="h%d" % draw(st.integers(0, n_hosts - 1)),
            advertised_bw=draw(st.integers(1, 60)) * MB,
            policy=draw(st.sampled_from(sorted(POLICIES))),
        )
        relays[relay.relay_id] = relay
        load[relay.relay_id] = draw(st.integers(0, 50)) * MB
        if relay.policy.endswith("_member"):
            members.setdefault(relay.host_id, []).append(relay.relay_id)
    clusters = ClusterTopology(
        clusters=tuple(
            Cluster(cluster_id=h, members=tuple(m), host_id=h)
            for h, m in sorted(members.items())
        ),
        dedicated_server="ded",
    )
    state = FlowState(Topology(relays=relays, hosts=hosts, clusters=clusters),
                      load)
    state.fp_suppressed_hosts.update(draw(st.sets(st.sampled_from(sorted(hosts)))))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(sorted(relays)),
                  st.sampled_from(("ba0", "ba1", "ba2"))),
        unique=True, max_size=8,
    ))
    for relay_id, ba_id in keys:
        state.add_flow(relay_id, ba_id,
                       draw(st.sampled_from((0.0, 5.0, 10.0, MISSED))))
    return state, draw(st.sampled_from((0.0, 5.0, 7.5, 10.0)))


class TestMaxMinFill:
    @settings(max_examples=300, deadline=None)
    @given(pool=st.floats(1.0, 1e9),
           demands=st.lists(st.floats(0.0, 1e9), max_size=12))
    def test_max_min_properties(self, pool, demands):
        keyed = [("f%d" % i, demand) for i, demand in enumerate(demands)]
        alloc = _max_min_fill(pool, keyed)
        # the pool is never exceeded beyond rounding of the equal shares
        assert math.fsum(alloc.values()) <= pool * (1 + 1e-12)
        top = max(alloc.values(), default=0.0)
        for key, demand in keyed:
            assert alloc[key] <= demand
            if alloc[key] < demand:
                assert alloc[key] == pytest.approx(top, rel=1e-12)

    def test_redistributes_unused_share(self):
        alloc = _max_min_fill(100.0, [("a", 30.0), ("b", 80.0)])
        assert alloc == {"a": 30.0, "b": 70.0}

    def test_equal_split_when_all_demands_exceed_share(self):
        alloc = _max_min_fill(30.0, [("a", 40.0), ("b", 50.0), ("c", 60.0)])
        assert alloc == {"a": 10.0, "b": 10.0, "c": 10.0}

    def test_underloaded_pool_satisfies_everyone(self):
        alloc = _max_min_fill(100.0, [("a", 10.0), ("b", 20.0)])
        assert alloc == {"a": 10.0, "b": 20.0}

    def test_zero_demand_gets_zero(self):
        alloc = _max_min_fill(100.0, [("a", 0.0), ("b", 50.0)])
        assert alloc["a"] == 0.0
        assert alloc["b"] == 50.0

    def test_conserves_pool(self):
        demands = [("f%d" % i, 7.0 * (i + 1)) for i in range(9)]
        alloc = _max_min_fill(100.0, demands)
        assert sum(alloc.values()) <= 100.0 + 1e-9


class TestFlowStateAllocations:
    def test_drop_on_measure_frees_own_user_flow(self):
        topology, load = shared_host_topology("drop_on_measure")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", 0.0)
        alloc = state.allocations(1.0)
        # A's own 30 MB/s of user traffic vanished; B's 20 MB/s remains and
        # is satisfied, the rest of the 50 MB host goes to the measurement
        assert alloc[("m", fp("A"), "ba0")] == pytest.approx(30 * MB)
        assert alloc[("u", fp("B"))] == pytest.approx(20 * MB)
        assert ("u", fp("A")) not in alloc

    def test_honest_relay_competes_with_all_user_flows(self):
        topology, load = shared_host_topology("honest")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", 0.0)
        alloc = state.allocations(1.0)
        # three flows (measurement, A's load, B's load) split 50 MB evenly
        assert alloc[("m", fp("A"), "ba0")] == pytest.approx(50 * MB / 3)
        assert alloc[("u", fp("A"))] == pytest.approx(50 * MB / 3)
        assert alloc[("u", fp("B"))] == pytest.approx(50 * MB / 3)

    def test_undetected_measurement_gets_no_special_treatment(self):
        topology, load = shared_host_topology("drop_on_measure")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", MISSED)
        alloc = state.allocations(1.0)
        assert alloc[("m", fp("A"), "ba0")] == pytest.approx(50 * MB / 3)

    def test_detection_delay_defers_the_drop(self):
        topology, load = shared_host_topology("drop_on_measure")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", 5.0)
        before = state.allocations(1.0)
        after = state.allocations(5.0)
        assert before[("m", fp("A"), "ba0")] == pytest.approx(50 * MB / 3)
        assert after[("m", fp("A"), "ba0")] == pytest.approx(30 * MB)

    def test_cotormult_measurement_drops_every_member_load(self):
        topology, members, load = cotormult_topology()
        state = FlowState(topology, load)
        state.add_flow(members[0], "ba0", 0.0)
        alloc = state.allocations(1.0)
        # all five member loads drop, the lone claim fits inside the pool
        assert alloc[("m", members[0], "ba0")] == pytest.approx(25 * MB)
        assert not any(key[0] == "u" and key[1] in members for key in alloc)

    def test_cotormult_claim_capped_by_host_pool(self):
        topology, members, load = cotormult_topology(member_claim=60 * MB)
        state = FlowState(topology, load)
        state.add_flow(members[0], "ba0", 0.0)
        alloc = state.allocations(1.0)
        assert alloc[("m", members[0], "ba0")] == pytest.approx(47.5 * MB)

    def test_cotormult_concurrent_measurements_split_pool(self):
        topology, members, load = cotormult_topology()
        state = FlowState(topology, load)
        state.add_flow(members[0], "ba0", 0.0)
        state.add_flow(members[1], "ba1", 0.0)
        alloc = state.allocations(1.0)
        assert alloc[("m", members[0], "ba0")] == pytest.approx(23.75 * MB)
        assert alloc[("m", members[1], "ba1")] == pytest.approx(23.75 * MB)

    def test_cotormult_undetected_member_competes_with_loads(self):
        topology, members, load = cotormult_topology()
        state = FlowState(topology, load)
        state.add_flow(members[0], "ba0", MISSED)
        alloc = state.allocations(1.0)
        # pool 47.5 MB over six flows, none of which fits its demand
        assert alloc[("m", members[0], "ba0")] == pytest.approx(47.5 * MB / 6)

    def test_detormult_measurement_lands_on_dedicated_server(self):
        topology, clusters, load = detormult_topology()
        state = FlowState(topology, load)
        state.add_flow(clusters[0][0], "ba0", 0.0)
        alloc = state.allocations(1.0)
        # dedicated pool: 50 MB * 0.22 efficiency
        assert alloc[("m", clusters[0][0], "ba0")] == pytest.approx(11 * MB)

    def test_detormult_concurrent_measurements_share_dedicated_pool(self):
        topology, clusters, load = detormult_topology()
        state = FlowState(topology, load)
        state.add_flow(clusters[0][0], "ba0", 0.0)
        state.add_flow(clusters[1][0], "ba1", 0.0)
        alloc = state.allocations(1.0)
        assert alloc[("m", clusters[0][0], "ba0")] == pytest.approx(5.5 * MB)
        assert alloc[("m", clusters[1][0], "ba1")] == pytest.approx(5.5 * MB)

    def test_detormult_undetected_measurement_stays_on_cluster_host(self):
        topology, clusters, load = detormult_topology()
        state = FlowState(topology, load)
        state.add_flow(clusters[0][0], "ba0", MISSED)
        alloc = state.allocations(1.0)
        # cluster host raw capacity 25 MB, six members but no user load here
        assert alloc[("m", clusters[0][0], "ba0")] == pytest.approx(25 * MB)

    def test_false_positive_suppression_drops_user_flows(self):
        topology, load = shared_host_topology("drop_on_measure")
        state = FlowState(topology, load)
        state.fp_suppressed_hosts.add("h")
        state.add_flow(fp("A"), "ba0", MISSED)
        alloc = state.allocations(1.0)
        # no user flow survives on the suppressed host, even undetected
        assert alloc[("m", fp("A"), "ba0")] == pytest.approx(30 * MB)
        assert not any(key[0] == "u" for key in alloc)

    def test_duplicate_flow_rejected(self):
        topology, load = shared_host_topology()
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", 0.0)
        with pytest.raises(SimulationError, match="duplicate"):
            state.add_flow(fp("A"), "ba0", 0.0)


class TestAvailableBandwidth:
    def test_hypothetical_probe_leaves_state_unchanged(self):
        topology, load = shared_host_topology()
        state = FlowState(topology, load)
        got = available_bandwidth(state, fp("A"), 0.0)
        assert got == pytest.approx(30 * MB)
        assert state.flows == {}

    def test_active_measurement_reports_its_allocation(self):
        topology, load = shared_host_topology("honest")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", 0.0)
        assert available_bandwidth(state, fp("A"), 1.0) == pytest.approx(
            50 * MB / 3
        )

    def test_unknown_relay_rejected(self):
        topology, load = shared_host_topology()
        state = FlowState(topology, load)
        with pytest.raises(ConfigError, match="unknown relay"):
            available_bandwidth(state, "F" * 40, 0.0)


class TestPerHostSolve:
    @settings(max_examples=300, deadline=None)
    @given(scenario=flow_states())
    def test_matches_whole_network_oracle(self, scenario):
        state, now = scenario
        flows = dict(state.flows)
        expected = oracle_allocations(state, now)
        assert state.allocations(now) == expected
        for relay_id, ba_id in flows:
            assert (state.flow_bandwidth(relay_id, ba_id, now)
                    == expected[("m", relay_id, ba_id)])
        for relay_id in state.topology.relays:
            assert (available_bandwidth(state, relay_id, now)
                    == oracle_available_bandwidth(state, relay_id, now))
        assert state.flows == flows

    @settings(max_examples=200, deadline=None)
    @given(scenario=flow_states(), data=st.data())
    def test_matches_oracle_over_a_sequence_of_steps(self, scenario, data):
        # solves are cached between steps, so each step is one way a stale
        # solve could leak: a flow added or removed, now moved forward or
        # backward across a detect time, a false-positive flag flipped
        state, now = scenario
        relays = sorted(state.topology.relays)
        keys = [(r, ba) for r in relays for ba in ("ba0", "ba1", "ba2")]
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            free = [key for key in keys if key not in state.flows]
            kinds = ["now", "fp"] + ["add"] * bool(free) + ["remove"] * bool(state.flows)
            kind = data.draw(st.sampled_from(kinds), label="step")
            if kind == "add":
                state.add_flow(*data.draw(st.sampled_from(free)), data.draw(
                    st.sampled_from((0.0, 2.5, 5.0, 10.0, now, MISSED))))
            elif kind == "remove":
                state.remove_flow(*data.draw(st.sampled_from(sorted(state.flows))))
            elif kind == "now":
                now = data.draw(st.sampled_from((0.0, 2.5, 5.0, 7.5, 10.0, 12.5)))
            elif data.draw(st.booleans(), label="clear"):
                state.fp_suppressed_hosts.clear()
            else:
                state.fp_suppressed_hosts.symmetric_difference_update({data.draw(
                    st.sampled_from(sorted(state.topology.hosts)))})
            # the oracle probes by adding a flow, so it runs on a twin
            twin = FlowState(state.topology, state.user_load)
            for (relay_id, ba_id), detect_time in state.flows.items():
                twin.add_flow(relay_id, ba_id, detect_time)
            twin.fp_suppressed_hosts.update(state.fp_suppressed_hosts)
            flows = dict(state.flows)
            expected = oracle_allocations(twin, now)
            assert state.allocations(now) == expected
            for relay_id, ba_id in flows:
                assert (state.flow_bandwidth(relay_id, ba_id, now)
                        == expected[("m", relay_id, ba_id)])
            for relay_id in relays:
                assert (available_bandwidth(state, relay_id, now)
                        == oracle_available_bandwidth(twin, relay_id, now))
            assert state.flows == flows

    def test_returned_allocations_do_not_alias_the_cache(self):
        topology, load = shared_host_topology("honest")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", 0.0)
        expected = state.allocations(1.0)
        state.allocations(1.0)[("u", fp("B"))] = -1.0
        state.allocations(1.0).clear()
        assert state.allocations(1.0) == expected
        assert (state.flow_bandwidth(fp("A"), "ba0", 1.0)
                == expected[("m", fp("A"), "ba0")])
        assert (available_bandwidth(state, fp("B"), 1.0)
                == oracle_available_bandwidth(state, fp("B"), 1.0))

    def test_solves_per_record_independent_of_network_size(self, monkeypatch):
        # a host is re-solved only when its flows, detection state or
        # false-positive flag change, so most downloads reuse both their
        # target's and their exit's solve; a larger network spreads its
        # exits' solves over more records, so it may need fewer per record
        solves = []

        def counting_fill(pool, demands):
            solves.append(len(demands))
            return _max_min_fill(pool, demands)

        monkeypatch.setattr(netsim, "_max_min_fill", counting_fill)
        per_record = []
        for n_loaded in (40, 160):
            solves.clear()
            relays, hosts, load = honest_farm(n_middles=n_loaded,
                                              user_load_bw=10 * MB)
            result = run_simulation(sim_config(
                Topology(relays=relays, hosts=hosts), user_load=load,
                threads=4, n_scanners=2,
            ))
            per_record.append(len(solves) / len(result.records))
        assert per_record[1] <= per_record[0]
        assert max(per_record) < 1.5


class TestDetectorModel:
    def test_ip_filter_detects_instantly(self):
        det = DetectorModel(mode="ip_filter")
        assert det.detection_delay_packets == 0
        assert det.detection_delay == 0.0

    def test_parametric_default_delay(self):
        det = DetectorModel(mode="parametric")
        assert det.detection_delay_packets == 5
        assert det.detection_delay == pytest.approx(0.0025)

    def test_explicit_delay_wins(self):
        det = DetectorModel(mode="parametric", detection_delay_packets=100)
        assert det.detection_delay == pytest.approx(0.05)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="detector mode"):
            DetectorModel(mode="dpi")

    @pytest.mark.parametrize("kwargs", [
        {"false_negative_rate": -0.1},
        {"false_positive_rate": 1.5},
        {"detection_delay_packets": -1},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DetectorModel(**kwargs)


class TestSimConfigValidation:
    def _topology(self):
        relays, hosts, _load = honest_farm(n_middles=1)
        return Topology(relays=relays, hosts=hosts)

    def test_duration_must_cover_an_epoch(self):
        with pytest.raises(ConfigError, match="consensus interval"):
            sim_config(self._topology(), duration=100.0,
                       consensus_interval=3600.0)

    def test_duplicate_scanner_ids_rejected(self):
        from torbwsim.scanner import ScannerConfig
        from torbwsim.netsim import SimConfig
        with pytest.raises(ConfigError, match="unique"):
            SimConfig(topology=self._topology(),
                      scanners=(ScannerConfig(ba_id="ba0"),
                                ScannerConfig(ba_id="ba0")))

    def test_user_load_for_unknown_relay_rejected(self):
        with pytest.raises(ConfigError, match="user_load"):
            sim_config(self._topology(), user_load={"F" * 40: 1.0})

    def test_negative_user_load_rejected(self):
        relay_id = fp("farm/middle0")
        with pytest.raises(ConfigError, match=">= 0"):
            sim_config(self._topology(), user_load={relay_id: -1.0})

    def test_activation_for_unknown_relay_rejected(self):
        with pytest.raises(ConfigError, match="activation"):
            sim_config(self._topology(), activation_times={"F" * 40: 10.0})



class TestFoldConsensus:
    def _cfg(self, duration=3600.0):
        relays, hosts, _load = honest_farm(n_middles=1)
        return sim_config(Topology(relays=relays, hosts=hosts), duration=duration)

    def _rec(self, end, bw, ba_id="ba0", ok=True):
        return MeasurementRecord(
            relay_id=fp("farm/middle0"), ba_id=ba_id, thread_id=0,
            start_time=None, end_time=end, measured_bw=bw, ok=ok,
        )

    def test_epoch_window_is_left_open_right_closed(self):
        records = [
            self._rec(0.0, 99 * MB),      # on the lower edge: excluded
            self._rec(1800.0, 10 * MB),
            self._rec(3600.0, 30 * MB),   # on the upper edge: included
        ]
        snap, = _fold_consensus(records, self._cfg())
        assert snap.weights[fp("farm/middle0")] == pytest.approx(20 * MB)

    def test_failed_records_do_not_vote(self):
        records = [
            self._rec(1800.0, 10 * MB),
            self._rec(1900.0, 0.0, ok=False),
        ]
        snap, = _fold_consensus(records, self._cfg())
        assert snap.weights[fp("farm/middle0")] == pytest.approx(10 * MB)

    def test_foreign_scanner_records_do_not_vote(self):
        records = [
            self._rec(1800.0, 10 * MB),
            self._rec(1900.0, 70 * MB, ba_id="other"),
        ]
        snap, = _fold_consensus(records, self._cfg())
        assert snap.weights[fp("farm/middle0")] == pytest.approx(10 * MB)

    def test_empty_epoch_reemits_prior(self):
        prior, snap = _fold_consensus([self._rec(1800.0, 20.0)],
                                      self._cfg(duration=7200.0))
        assert prior.weights == {fp("farm/middle0"): 20.0}
        assert snap.epoch == 2
        assert snap.weights == prior.weights

    def test_empty_epoch_without_prior_is_empty(self):
        snap, = _fold_consensus([], self._cfg())
        assert snap.epoch == 1
        assert snap.weights == {}


class TestRunSimulation:
    def test_honest_relays_measured_at_advertised(self):
        relays, hosts, _load = honest_farm(n_middles=5)
        result = run_simulation(sim_config(Topology(relays=relays, hosts=hosts)))
        middles = {r.relay_id for r in relays.values() if r.role == "middle"}
        ok = [r for r in result.records if r.ok and r.relay_id in middles]
        assert {r.relay_id for r in ok} == middles
        for rec in ok:
            assert rec.measured_bw == pytest.approx(25 * MB)
        final = result.consensus[-1]
        for relay_id in middles:
            assert final.weights[relay_id] == pytest.approx(25 * MB)
        assert result.baseline_bw == pytest.approx(25 * MB)

    def test_drop_on_measure_end_to_end(self):
        topology, load = shared_host_topology("drop_on_measure")
        result = run_simulation(sim_config(topology, user_load=load))
        by_relay = {}
        for rec in result.records:
            assert rec.ok
            by_relay.setdefault(rec.relay_id, []).append(rec.measured_bw)
        # A gets its full claim while measured; honest B fights both loads
        for bw in by_relay[fp("A")]:
            assert bw == pytest.approx(30 * MB)
        for bw in by_relay[fp("B")]:
            assert bw == pytest.approx(50 * MB / 3)

    def test_cotormult_member_measured_at_full_claim(self):
        topology, members, load = cotormult_topology()
        result = run_simulation(sim_config(topology, user_load=load))
        member_recs = [r for r in result.records if r.relay_id in set(members)]
        assert member_recs
        for rec in member_recs:
            assert rec.ok
            assert rec.measured_bw == pytest.approx(25 * MB)
        assert inflation_factor(result, members) == pytest.approx(5.0)

    def test_cotormult_false_negative_competes_like_user(self):
        topology, members, load = cotormult_topology()
        detector = DetectorModel(false_negative_rate=1.0)
        result = run_simulation(
            sim_config(topology, user_load=load, detector=detector)
        )
        member_recs = [r for r in result.records if r.relay_id in set(members)]
        assert member_recs
        for rec in member_recs:
            assert rec.measured_bw == pytest.approx(47.5 * MB / 6)
        assert inflation_factor(result, members) == pytest.approx(
            5 * (47.5 / 6) / 25
        )

    def test_false_positive_suppression_helps_even_undetected(self):
        topology, members, load = cotormult_topology(member_claim=60 * MB)
        detector = DetectorModel(false_negative_rate=1.0,
                                 false_positive_rate=1.0)
        result = run_simulation(
            sim_config(topology, user_load=load, detector=detector)
        )
        member_recs = [r for r in result.records if r.relay_id in set(members)]
        assert member_recs
        # loads on the flagged host are gone, so the whole pool is measurable
        for rec in member_recs:
            assert rec.measured_bw == pytest.approx(47.5 * MB)

    def test_detormult_end_to_end(self):
        topology, clusters, load = detormult_topology()
        members = [m for cluster in clusters for m in cluster]
        result = run_simulation(sim_config(topology, user_load=load))
        member_recs = [r for r in result.records if r.relay_id in set(members)]
        assert len(member_recs) == 18
        for rec in member_recs:
            assert rec.measured_bw == pytest.approx(11 * MB)
        assert result.baseline_bw == pytest.approx(25 * MB)
        assert inflation_factor(result, members) == pytest.approx(18 * 11 / 25)
        assert inflation_factor(result, clusters[0]) == pytest.approx(6 * 11 / 25)

    def test_single_round_prior_carries_across_empty_epochs(self):
        relays, hosts, _load = honest_farm(n_middles=3)
        cfg = sim_config(Topology(relays=relays, hosts=hosts),
                         duration=10800.0, round_budget=10800.0)
        result = run_simulation(cfg)
        assert [snap.epoch for snap in result.consensus] == [1, 2, 3]
        assert result.consensus[1].weights == result.consensus[0].weights
        assert result.consensus[2].weights == result.consensus[0].weights

    def test_late_activation_joins_later_epoch(self):
        relays, hosts, _load = honest_farm(n_middles=2)
        late = fp("farm/middle1")
        cfg = sim_config(Topology(relays=relays, hosts=hosts),
                         duration=7200.0, round_budget=600.0,
                         activation_times={late: 3700.0})
        result = run_simulation(cfg)
        assert late not in result.consensus[0].weights
        assert late in result.consensus[1].weights

    def test_deterministic_for_config(self):
        topology, members, load = cotormult_topology()
        a = run_simulation(sim_config(topology, user_load=load, seed=7))
        b = run_simulation(sim_config(topology, user_load=load, seed=7))
        assert a.records == b.records
        assert a.consensus == b.consensus

    def test_seed_changes_measurement_order(self):
        relays, hosts, _load = honest_farm(n_middles=12)
        topology = Topology(relays=relays, hosts=hosts)
        a = run_simulation(sim_config(topology, seed=0))
        b = run_simulation(sim_config(topology, seed=1))
        assert [r.relay_id for r in a.records] != [r.relay_id for r in b.records]

    def test_no_scanners_rejected(self):
        from torbwsim.netsim import SimConfig
        relays, hosts, _load = honest_farm(n_middles=1)
        cfg = SimConfig(topology=Topology(relays=relays, hosts=hosts),
                        scanners=())
        with pytest.raises(SimulationError, match="nothing to measure"):
            run_simulation(cfg)

    def test_no_successful_measurement_raises(self):
        # the only exit is slower than 2x the target: every round is empty
        hosts = {
            "h": HostSpec(host_id="h", capacity=400 * MB),
            "hx": HostSpec(host_id="hx", capacity=400 * MB),
        }
        relays = {
            fp("t"): RelaySpec(relay_id=fp("t"), host_id="h",
                               advertised_bw=100 * MB),
            fp("x"): RelaySpec(relay_id=fp("x"), host_id="hx",
                               advertised_bw=20 * MB, role="exit"),
        }
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        with pytest.raises(SimulationError, match="no successful measurements"):
            run_simulation(cfg)


class TestInflationFactor:
    def test_empty_attacker_set_is_zero(self):
        result = SimResult(records=(), consensus=(
            ConsensusSnapshot(epoch=1, weights={fp("a"): 10.0}),
        ), baseline_bw=10.0)
        assert inflation_factor(result, []) == 0.0

    def test_zero_baseline_rejected(self):
        result = SimResult(records=(), consensus=(
            ConsensusSnapshot(epoch=1, weights={fp("a"): 10.0}),
        ), baseline_bw=0.0)
        with pytest.raises(ValueError, match="baseline"):
            inflation_factor(result, [fp("a")])

    def test_missing_consensus_rejected(self):
        result = SimResult(records=(), consensus=(), baseline_bw=10.0)
        with pytest.raises(ValueError, match="consensus"):
            inflation_factor(result, [fp("a")])

    def test_sums_independent_of_hash_seed(self):
        # set iteration order follows PYTHONHASHSEED; a float sum taken in
        # that order rounds differently from one interpreter to the next
        script = (
            "from torbwsim.core import ConsensusSnapshot, selection_probability\n"
            "from torbwsim.netsim import SimResult, inflation_factor\n"
            "ids = ['%040X' % (i * 7919) for i in range(1, 41)]\n"
            "snap = ConsensusSnapshot(epoch=1, weights={\n"
            "    r: 1e6 / (i + 3) for i, r in enumerate(ids)})\n"
            "result = SimResult(records=(), consensus=(snap,), baseline_bw=3.0)\n"
            "print(repr(inflation_factor(result, ids)),\n"
            "      repr(selection_probability(snap, ids[1:])))\n"
        )
        src = os.path.dirname(os.path.dirname(netsim.__file__))
        outputs = set()
        for hash_seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_uses_final_snapshot_only(self):
        result = SimResult(records=(), consensus=(
            ConsensusSnapshot(epoch=1, weights={fp("a"): 99.0}),
            ConsensusSnapshot(epoch=2, weights={fp("a"): 30.0}),
        ), baseline_bw=10.0)
        assert inflation_factor(result, [fp("a")]) == pytest.approx(3.0)


class TestBaseline:
    def test_prefers_honest_relays_on_attacker_class_hosts(self):
        hosts = {
            "atk": HostSpec(host_id="atk", capacity=50 * MB),
            "match": HostSpec(host_id="match", capacity=50 * MB),
            "other": HostSpec(host_id="other", capacity=100 * MB),
        }
        relays = {
            fp("m"): RelaySpec(relay_id=fp("m"), host_id="atk",
                               advertised_bw=25 * MB, policy="drop_on_measure"),
            fp("h1"): RelaySpec(relay_id=fp("h1"), host_id="match",
                                advertised_bw=25 * MB),
            fp("h2"): RelaySpec(relay_id=fp("h2"), host_id="other",
                                advertised_bw=25 * MB),
        }
        topology = Topology(relays=relays, hosts=hosts)
        records = [
            MeasurementRecord(relay_id=fp("h1"), ba_id="ba0", thread_id=0,
                              start_time=0.0, end_time=1.0, measured_bw=10 * MB),
            MeasurementRecord(relay_id=fp("h2"), ba_id="ba0", thread_id=0,
                              start_time=0.0, end_time=1.0, measured_bw=90 * MB),
        ]
        # only h1 shares the attacker host class (relay_host, 50 MB)
        assert _baseline_bw(records, topology) == pytest.approx(10 * MB)

    def test_falls_back_to_all_honest_when_no_class_match(self):
        hosts = {
            "atk": HostSpec(host_id="atk", capacity=77 * MB),
            "other": HostSpec(host_id="other", capacity=100 * MB),
        }
        relays = {
            fp("m"): RelaySpec(relay_id=fp("m"), host_id="atk",
                               advertised_bw=25 * MB, policy="drop_on_measure"),
            fp("h2"): RelaySpec(relay_id=fp("h2"), host_id="other",
                                advertised_bw=25 * MB),
        }
        topology = Topology(relays=relays, hosts=hosts)
        records = [
            MeasurementRecord(relay_id=fp("h2"), ba_id="ba0", thread_id=0,
                              start_time=0.0, end_time=1.0, measured_bw=90 * MB),
        ]
        assert _baseline_bw(records, topology) == pytest.approx(90 * MB)

    def test_no_usable_records_gives_zero(self):
        relays, hosts, _load = honest_farm(n_middles=1)
        assert _baseline_bw([], Topology(relays=relays, hosts=hosts)) == 0.0


class TestRunProbe:
    def test_single_member_sees_whole_dedicated_pool(self):
        topology, clusters, load = detormult_topology()
        cfg = sim_config(topology, user_load=load)
        records = run_probe(cfg, [clusters[0][0]], seed="p")
        assert len(records) == 1
        assert records[0].ok
        assert records[0].ba_id == "probe"
        assert records[0].measured_bw == pytest.approx(11 * MB)

    def test_concurrent_members_split_dedicated_pool(self):
        topology, clusters, load = detormult_topology()
        cfg = sim_config(topology, user_load=load)
        records = run_probe(cfg, [clusters[0][0], clusters[1][0]], seed="p")
        assert len(records) == 2
        for rec in records:
            assert rec.measured_bw == pytest.approx(5.5 * MB)
        # simultaneous start is the whole point of the probe
        starts = {rec.start_time for rec in records}
        assert len(starts) == 1

    def test_independent_relays_unaffected_by_pairing(self):
        relays, hosts, _load = honest_farm(n_middles=2)
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        pair = [fp("farm/middle0"), fp("farm/middle1")]
        records = run_probe(cfg, pair, seed="p")
        for rec in records:
            assert rec.measured_bw == pytest.approx(25 * MB)

    def test_at_most_eight_targets_start_together(self):
        relays, hosts, _load = honest_farm(n_middles=9)
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        targets = [fp("farm/middle%d" % i) for i in range(9)]
        records = run_probe(cfg, targets[:8], seed="p", start_time=3.0)
        assert len(records) == 8
        assert {rec.start_time for rec in records} == {3.0}
        with pytest.raises(ValueError, match="threads"):
            run_probe(cfg, targets, seed="p")

    def test_constant_rate(self):
        relays, hosts, _load = honest_farm(n_middles=1)
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        (rec,) = run_probe(cfg, [fp("farm/middle0")], seed="p", start_time=100.0)
        assert rec.ok
        assert rec.measured_bw == pytest.approx(25 * MB)
        assert rec.start_time == 100.0
        assert rec.duration == pytest.approx(
            (16 + 32 + 64 + 128 * 6) * MIB / (25 * MB)
        )

    def test_path_is_min_of_target_and_exit(self):
        # the exit qualifies on advertised bandwidth, but its host can only
        # carry 10 MB/s, below the target's 25 MB/s
        hosts = {
            "h": HostSpec(host_id="h", capacity=400 * MB),
            "hx": HostSpec(host_id="hx", capacity=10 * MB),
        }
        relays = {
            fp("t"): RelaySpec(relay_id=fp("t"), host_id="h",
                               advertised_bw=25 * MB),
            fp("x"): RelaySpec(relay_id=fp("x"), host_id="hx",
                               advertised_bw=200 * MB, role="exit"),
        }
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        (rec,) = run_probe(cfg, [fp("t")], seed="p")
        assert rec.ok
        assert rec.measured_bw == pytest.approx(10 * MB)

    def test_dead_path_record(self, monkeypatch):
        monkeypatch.setattr(netsim, "available_bandwidth",
                            lambda state, relay_id, now: 0.0)
        relays, hosts, _load = honest_farm(n_middles=1)
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        (rec,) = run_probe(cfg, [fp("farm/middle0")], seed="p", start_time=5.0)
        assert not rec.ok
        assert rec.measured_bw == 0.0
        assert rec.start_time == 5.0
        assert rec.end_time > rec.start_time

    def test_seed_drives_detector_misses(self):
        # a detected probe of a DeTorMult member sees the 11 MB/s dedicated
        # pool, a missed one the member's own 25 MB/s host
        topology, clusters, load = detormult_topology()
        cfg = sim_config(topology, user_load=load,
                         detector=DetectorModel(false_negative_rate=0.5))
        measured = {
            round(run_probe(cfg, [clusters[0][0]], seed="solo/%d" % i)[0]
                  .measured_bw / MB, 6)
            for i in range(40)
        }
        assert measured == {11.0, 25.0}

    def test_empty_probe_is_empty(self):
        topology, clusters, load = detormult_topology()
        cfg = sim_config(topology, user_load=load)
        assert run_probe(cfg, [], seed="p") == ()

    def test_no_qualifying_exit_raises(self):
        hosts = {
            "h": HostSpec(host_id="h", capacity=400 * MB),
            "hx": HostSpec(host_id="hx", capacity=400 * MB),
        }
        relays = {
            fp("t"): RelaySpec(relay_id=fp("t"), host_id="h",
                               advertised_bw=100 * MB),
            fp("x"): RelaySpec(relay_id=fp("x"), host_id="hx",
                               advertised_bw=20 * MB, role="exit"),
        }
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        with pytest.raises(SimulationError, match="no qualifying exit"):
            run_probe(cfg, [fp("t")], seed="p")
