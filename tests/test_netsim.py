import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import example, given, settings
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
    aggregate_consensus,
)
from torbwsim import netsim
from torbwsim.netsim import (
    DetectorModel,
    FlowState,
    SimResult,
    _baseline_bw,
    _fold_consensus,
    _max_min_fill,
    build_sim_config,
    inflation_factor,
    run_probe,
    run_simulation,
)
from torbwsim.units import MIB


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


def oracle_allocations(state):
    """Whole-network max-min allocation, transcribed from the simulator as it
    was before allocation became per-host: every host solved at once, with
    the paused user flows found by scanning every relay."""
    relays = state.topology.relays
    dropped = set()
    for (relay_id, _ba_id), detected in state.flows.items():
        if not detected:
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
    for key, detected in state.flows.items():
        relay = relays[key[0]]
        host = relay.host_id
        if relay.policy == "detormult_member" and detected:
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


def oracle_available_bandwidth(state, relay_id):
    state.add_flow(relay_id, "__probe__", detected=True)
    try:
        return oracle_allocations(state)[("m", relay_id, "__probe__")]
    finally:
        state.remove_flow(relay_id, "__probe__")


@st.composite
def flow_states(draw):
    """A small network mixing all four policies, with active flows.

    Relay hosts share a dedicated server; a flow may be detected when it is
    added, detected later or never, and the later detections run in a random
    order, so a DeTorMult flow may reach the dedicated server out of add
    order; several scanners may measure one relay; any host may be
    suppressed by a false positive.
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
    state.set_false_positives(draw(st.sets(st.sampled_from(sorted(hosts)))))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(sorted(relays)),
                  st.sampled_from(("ba0", "ba1", "ba2"))),
        unique=True, max_size=8,
    ))
    later = []
    for key in keys:
        when = draw(st.sampled_from(("added", "later", "never")))
        state.add_flow(*key, detected=when == "added")
        if when == "later":
            later.append(key)
    for key in draw(st.permutations(later)):
        state.detect(*key)
    return state


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
        state.add_flow(fp("A"), "ba0", detected=True)
        alloc = state.allocations()
        # A's own 30 MB/s of user traffic vanished; B's 20 MB/s remains and
        # is satisfied, the rest of the 50 MB host goes to the measurement
        assert alloc[("m", fp("A"), "ba0")] == pytest.approx(30 * MB)
        assert alloc[("u", fp("B"))] == pytest.approx(20 * MB)
        assert ("u", fp("A")) not in alloc

    def test_honest_relay_competes_with_all_user_flows(self):
        topology, load = shared_host_topology("honest")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", detected=True)
        alloc = state.allocations()
        # three flows (measurement, A's load, B's load) split 50 MB evenly
        assert alloc[("m", fp("A"), "ba0")] == pytest.approx(50 * MB / 3)
        assert alloc[("u", fp("A"))] == pytest.approx(50 * MB / 3)
        assert alloc[("u", fp("B"))] == pytest.approx(50 * MB / 3)

    def test_undetected_measurement_gets_no_special_treatment(self):
        topology, load = shared_host_topology("drop_on_measure")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", detected=False)
        alloc = state.allocations()
        assert alloc[("m", fp("A"), "ba0")] == pytest.approx(50 * MB / 3)

    def test_detection_delay_defers_the_drop(self):
        topology, load = shared_host_topology("drop_on_measure")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", detected=False)
        before = state.allocations()
        state.detect(fp("A"), "ba0")
        after = state.allocations()
        assert before[("m", fp("A"), "ba0")] == pytest.approx(50 * MB / 3)
        assert after[("m", fp("A"), "ba0")] == pytest.approx(30 * MB)

    def test_cotormult_measurement_drops_every_member_load(self):
        topology, members, load = cotormult_topology()
        state = FlowState(topology, load)
        state.add_flow(members[0], "ba0", detected=True)
        alloc = state.allocations()
        # all five member loads drop, the lone claim fits inside the pool
        assert alloc[("m", members[0], "ba0")] == pytest.approx(25 * MB)
        assert not any(key[0] == "u" and key[1] in members for key in alloc)

    def test_cotormult_claim_capped_by_host_pool(self):
        topology, members, load = cotormult_topology(member_claim=60 * MB)
        state = FlowState(topology, load)
        state.add_flow(members[0], "ba0", detected=True)
        alloc = state.allocations()
        assert alloc[("m", members[0], "ba0")] == pytest.approx(47.5 * MB)

    def test_cotormult_concurrent_measurements_split_pool(self):
        topology, members, load = cotormult_topology()
        state = FlowState(topology, load)
        state.add_flow(members[0], "ba0", detected=True)
        state.add_flow(members[1], "ba1", detected=True)
        alloc = state.allocations()
        assert alloc[("m", members[0], "ba0")] == pytest.approx(23.75 * MB)
        assert alloc[("m", members[1], "ba1")] == pytest.approx(23.75 * MB)

    def test_cotormult_undetected_member_competes_with_loads(self):
        topology, members, load = cotormult_topology()
        state = FlowState(topology, load)
        state.add_flow(members[0], "ba0", detected=False)
        alloc = state.allocations()
        # pool 47.5 MB over six flows, none of which fits its demand
        assert alloc[("m", members[0], "ba0")] == pytest.approx(47.5 * MB / 6)

    def test_detormult_measurement_lands_on_dedicated_server(self):
        topology, clusters, load = detormult_topology()
        state = FlowState(topology, load)
        state.add_flow(clusters[0][0], "ba0", detected=True)
        alloc = state.allocations()
        # dedicated pool: 50 MB * 0.22 efficiency
        assert alloc[("m", clusters[0][0], "ba0")] == pytest.approx(11 * MB)

    def test_detormult_concurrent_measurements_share_dedicated_pool(self):
        topology, clusters, load = detormult_topology()
        state = FlowState(topology, load)
        state.add_flow(clusters[0][0], "ba0", detected=True)
        state.add_flow(clusters[1][0], "ba1", detected=True)
        alloc = state.allocations()
        assert alloc[("m", clusters[0][0], "ba0")] == pytest.approx(5.5 * MB)
        assert alloc[("m", clusters[1][0], "ba1")] == pytest.approx(5.5 * MB)

    def test_detormult_undetected_measurement_stays_on_cluster_host(self):
        topology, clusters, load = detormult_topology()
        state = FlowState(topology, load)
        state.add_flow(clusters[0][0], "ba0", detected=False)
        alloc = state.allocations()
        # cluster host raw capacity 25 MB, six members but no user load here
        assert alloc[("m", clusters[0][0], "ba0")] == pytest.approx(25 * MB)

    def test_false_positive_suppression_drops_user_flows(self):
        topology, load = shared_host_topology("drop_on_measure")
        state = FlowState(topology, load)
        state.set_false_positives({"h"})
        state.add_flow(fp("A"), "ba0", detected=False)
        alloc = state.allocations()
        # no user flow survives on the suppressed host, even undetected
        assert alloc[("m", fp("A"), "ba0")] == pytest.approx(30 * MB)
        assert not any(key[0] == "u" for key in alloc)

    def test_duplicate_flow_rejected(self):
        topology, load = shared_host_topology()
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", detected=True)
        with pytest.raises(SimulationError, match="duplicate"):
            state.add_flow(fp("A"), "ba0", detected=True)

    def test_detection_of_absent_flow_rejected(self):
        # a detection that outlives its measurement must not re-add the flow
        topology, load = shared_host_topology()
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", detected=False)
        state.remove_flow(fp("A"), "ba0")
        with pytest.raises(SimulationError, match="absent"):
            state.detect(fp("A"), "ba0")
        assert state.flows == {}


def random_step(state, data):
    """Apply one drawn event to state: a flow added, removed or detected, or
    a new set of false-positive hosts."""
    keys = [(r, ba) for r in sorted(state.topology.relays)
            for ba in ("ba0", "ba1", "ba2")]
    free = [key for key in keys if key not in state.flows]
    undetected = sorted(key for key, detected in state.flows.items()
                        if not detected)
    kinds = (["fp"] + ["add"] * bool(free) + ["remove"] * bool(state.flows)
             + ["detect"] * bool(undetected))
    kind = data.draw(st.sampled_from(kinds), label="step")
    if kind == "add":
        state.add_flow(*data.draw(st.sampled_from(free)),
                       detected=data.draw(st.booleans(), label="detected"))
    elif kind == "remove":
        state.remove_flow(*data.draw(st.sampled_from(sorted(state.flows))))
    elif kind == "detect":
        state.detect(*data.draw(st.sampled_from(undetected)))
    else:
        state.set_false_positives(data.draw(st.sets(st.sampled_from(
            sorted(state.topology.hosts)))))


class TestPerHostSolve:
    @settings(max_examples=300, deadline=None)
    @given(state=flow_states())
    def test_matches_whole_network_oracle(self, state):
        flows = dict(state.flows)
        expected = oracle_allocations(state)
        assert state.allocations() == expected
        for relay_id, ba_id in flows:
            assert (state.flow_bandwidth(relay_id, ba_id)
                    == expected[("m", relay_id, ba_id)])
        assert state.flows == flows

    @settings(max_examples=200, deadline=None)
    @given(state=flow_states(), data=st.data())
    def test_matches_oracle_over_a_sequence_of_steps(self, state, data):
        # solves are cached between steps, so each step is one way a stale
        # solve could leak
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            random_step(state, data)
            flows = dict(state.flows)
            expected = oracle_allocations(state)
            assert state.allocations() == expected
            for relay_id, ba_id in flows:
                assert (state.flow_bandwidth(relay_id, ba_id)
                        == expected[("m", relay_id, ba_id)])
            assert state.flows == flows

    @settings(max_examples=200, deadline=None)
    @given(state=flow_states(), data=st.data())
    def test_flow_rate_solve_stays_filled_only_while_the_rate_holds(self, state,
                                                                     data):
        # the loop reuses a rate while the solve flow_rate gave with it is
        # non-empty: after any sequence of steps, such a rate is still the
        # flow's, and the flow is still there
        read = {}
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            for key in state.flows:
                if not read.get(key, (0, {}))[1]:
                    read[key] = state.flow_rate(*key)
            random_step(state, data)
            expected = oracle_allocations(state)
            for key, (rate, solve) in read.items():
                if solve:
                    assert rate == expected[("m",) + key]

    def test_flow_rate_solve_emptied_by_its_own_host_only(self):
        topology, load = shared_host_topology("honest")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", detected=False)
        rate, solve = state.flow_rate(fp("A"), "ba0")
        assert rate == state.flow_bandwidth(fp("A"), "ba0") and solve
        state.set_false_positives({"hx"})
        assert state.flow_rate(fp("A"), "ba0") == (rate, solve)
        state.add_flow(fp("B"), "ba0", detected=False)
        assert not solve
        assert state.flow_rate(fp("A"), "ba0")[0] < rate

    def test_returned_allocations_do_not_alias_the_cache(self):
        topology, load = shared_host_topology("honest")
        state = FlowState(topology, load)
        state.add_flow(fp("A"), "ba0", detected=True)
        expected = state.allocations()
        state.allocations()[("u", fp("B"))] = -1.0
        state.allocations().clear()
        assert state.allocations() == expected
        assert (state.flow_bandwidth(fp("A"), "ba0")
                == expected[("m", fp("A"), "ba0")])

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.floats(1.0, 1e10),
           efficiency=st.sampled_from((1.0, 0.95, 0.5, 0.22)),
           advertised=st.floats(1.0, 1e10))
    def test_exit_cap_is_the_probe_of_a_lone_exit(self, capacity, efficiency,
                                                  advertised):
        # an exit alone on its host, without user load: its cap is exactly
        # what a detected measurement of it would be allocated
        exit_id = fp("X")
        topology = Topology(
            relays={exit_id: RelaySpec(relay_id=exit_id, host_id="hx",
                                       advertised_bw=advertised, role="exit")},
            hosts={"hx": HostSpec(host_id="hx", capacity=capacity,
                                  efficiency=efficiency)},
        )
        state = FlowState(topology, {})
        assert state.exit_caps == {
            exit_id: oracle_available_bandwidth(state, exit_id)}

    def test_solves_per_record_independent_of_network_size(self, monkeypatch):
        # a download solves only its target's host, and that host is
        # re-solved only when its flows, detection state or false-positive
        # flag change, so most downloads reuse the solve; exits have fixed
        # caps and are never solved
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


def mixed_policy_topology():
    """A relay of each cheating policy, each with an honest relay beside it
    on its host, every relay loaded; detormult members share one server."""
    hosts = {
        "h": HostSpec(host_id="h", capacity=50 * MB),
        "c": HostSpec(host_id="c", capacity=50 * MB, efficiency=0.95),
        "d": HostSpec(host_id="d", capacity=25 * MB),
        "ded": HostSpec(host_id="ded", capacity=50 * MB,
                        kind="dedicated_server", efficiency=0.22),
        "hx": HostSpec(host_id="hx", capacity=400 * MB),
    }
    specs = [("drop", "h", "drop_on_measure"), ("honest-h", "h", "honest"),
             ("co0", "c", "cotormult_member"), ("co1", "c", "cotormult_member"),
             ("honest-c", "c", "honest"), ("de0", "d", "detormult_member"),
             ("de1", "d", "detormult_member"), ("honest-d", "d", "honest")]
    relays = {
        fp(name): RelaySpec(relay_id=fp(name), host_id=host_id,
                            advertised_bw=20 * MB, policy=policy)
        for name, host_id, policy in specs
    }
    relays[fp("x")] = RelaySpec(relay_id=fp("x"), host_id="hx",
                                advertised_bw=200 * MB, role="exit")
    clusters = ClusterTopology(clusters=(
        Cluster(cluster_id="c", members=(fp("co0"), fp("co1")), host_id="c"),
        Cluster(cluster_id="d", members=(fp("de0"), fp("de1")), host_id="d"),
    ), dedicated_server="ded")
    load = {fp(name): 15 * MB for name, _host_id, _policy in specs}
    return Topology(relays=relays, hosts=hosts, clusters=clusters), load


class TestOnlyReactingPoliciesDetected:
    """Under a delayed detector the loop detects only the flows of relays
    whose policy reacts to detection: an honest flow's flag changes no
    allocation, so detecting it would only drop its host's cached solve."""

    def _run(self, monkeypatch, false_negative_rate=0.0, detect_honest=False):
        """The records, the flows added, the flows detected and the count
        of _max_min_fill calls of a run on mixed_policy_topology; with
        detect_honest, honest flows are detected after the delay as well."""
        topology, load = mixed_policy_topology()
        detector = DetectorModel(mode="parametric",
                                 false_negative_rate=false_negative_rate)
        cfg = sim_config(topology, user_load=load, threads=4, n_scanners=2,
                         duration=4 * 3600.0, round_budget=900.0,
                         detector=detector)
        added, detected, fills = [], [], []
        add_flow, detect = FlowState.add_flow, FlowState.detect

        def spy_add(state, relay_id, ba_id, detected):
            added.append((relay_id, ba_id))
            add_flow(state, relay_id, ba_id, detected)

        def spy_detect(state, relay_id, ba_id):
            detected.append((relay_id, ba_id))
            detect(state, relay_id, ba_id)

        def counting_fill(pool, demands):
            fills.append(len(demands))
            return _max_min_fill(pool, demands)

        monkeypatch.setattr(FlowState, "add_flow", spy_add)
        monkeypatch.setattr(FlowState, "detect", spy_detect)
        monkeypatch.setattr(netsim, "_max_min_fill", counting_fill)
        if detect_honest:
            start_next = netsim._Loop._start_next

            def start_and_detect(loop, ctx, now):
                start_next(loop, ctx, now)
                if (ctx.gen is not None
                        and topology.relays[ctx.target].policy == "honest"):
                    loop.push(now + detector.detection_delay, netsim._PRIO_DETECT,
                              loop._on_detect, ctx, ctx.gen)

            monkeypatch.setattr(netsim._Loop, "_start_next", start_and_detect)
        result = run_simulation(cfg)
        return result.records, added, detected, len(fills)

    def test_honest_flows_are_never_detected(self, monkeypatch):
        records, added, detected, _fills = self._run(monkeypatch)
        relays = mixed_policy_topology()[0].relays
        cheating = Counter(key for key in added
                           if relays[key[0]].policy != "honest")
        # five cheating relays, each measured by both scanners
        assert len(cheating) == 10 and sum(cheating.values()) < len(added)
        # without misses each cheating flow is detected once, honest ones never
        assert Counter(detected) == cheating
        assert min(r.duration for r in records) > DetectorModel(
            mode="parametric").detection_delay

    def test_missed_flows_are_not_detected(self, monkeypatch):
        _records, added, detected, _fills = self._run(
            monkeypatch, false_negative_rate=0.5)
        relays = mixed_policy_topology()[0].relays
        cheating = Counter(key for key in added
                           if relays[key[0]].policy != "honest")
        assert not Counter(detected) - cheating
        assert 0 < len(detected) < sum(cheating.values())

    def test_detecting_honest_flows_only_costs_solves(self, monkeypatch):
        records, _added, detected, fills = self._run(monkeypatch)
        monkeypatch.undo()
        all_records, _added, all_detected, all_fills = self._run(
            monkeypatch, detect_honest=True)
        assert len(all_detected) > len(detected)
        assert all_records == records
        assert fills < all_fills


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

    @pytest.mark.parametrize("load", [math.nan, math.inf])
    def test_non_finite_user_load_rejected(self, load):
        relay_id = fp("farm/middle0")
        with pytest.raises(ConfigError, match="finite"):
            sim_config(self._topology(), user_load={relay_id: load})

    def test_activation_for_unknown_relay_rejected(self):
        with pytest.raises(ConfigError, match="activation"):
            sim_config(self._topology(), activation_times={"F" * 40: 10.0})



def scan_fold_consensus(records, cfg):
    """Oracle: the fold as a scan of every record for each epoch and scanner."""
    snapshots = []
    prior = None
    for epoch in range(1, int(cfg.duration // cfg.consensus_interval) + 1):
        lo = (epoch - 1) * cfg.consensus_interval
        hi = epoch * cfg.consensus_interval
        votes = []
        for scanner in cfg.scanners:
            sums, counts = {}, {}
            for rec in records:
                if rec.ba_id != scanner.ba_id or not rec.ok:
                    continue
                if not lo < rec.end_time <= hi:
                    continue
                sums[rec.relay_id] = sums.get(rec.relay_id, 0.0) + rec.measured_bw
                counts[rec.relay_id] = counts.get(rec.relay_id, 0) + 1
            if sums:
                votes.append((scanner.ba_id, {r: sums[r] / counts[r] for r in sums}))
        if votes:
            prior = aggregate_consensus(votes, prior=prior, epoch=epoch)
        else:
            weights = dict(prior.weights) if prior is not None else {}
            prior = ConsensusSnapshot(epoch=epoch, weights=weights)
        snapshots.append(prior)
    return tuple(snapshots)


@st.composite
def fold_cases(draw):
    """A consensus interval that is not an integer, or is, and records of two
    scanners and a foreign one ending on, next to and between its edges."""
    interval = draw(st.sampled_from((0.1, 0.3, 1 / 3, 7.0)))

    def nudged(k, ulps):
        end = k * interval
        for _ in range(abs(ulps)):
            end = math.nextafter(end, math.copysign(math.inf, ulps))
        return end

    end = st.one_of(st.builds(nudged, st.integers(0, 14), st.integers(-1, 1)),
                    st.floats(-interval, 14 * interval))
    rows = st.lists(st.tuples(end, st.sampled_from("ab"),
                              st.sampled_from(("ba0", "ba1", "other")),
                              st.booleans(),
                              st.one_of(st.floats(1.0, 100.0), st.just(1e16))),
                    max_size=40)
    return interval, draw(rows)


class TestFoldConsensus:
    def _cfg(self, duration=3600.0, **kwargs):
        relays, hosts, _load = honest_farm(n_middles=1)
        return sim_config(Topology(relays=relays, hosts=hosts), duration=duration,
                          **kwargs)

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

    @settings(max_examples=200, deadline=None)
    @given(case=fold_cases())
    # 0.3 s lies in epoch 3, (0.2, 0.30000000000000004], and so does
    # 0.30000000000000004, whose quotient by 0.1 has ceiling 4; relay a's
    # epoch-3 sum is 1e16 in record order (1e16 + 1 + 1) and not in reverse
    @example(case=(0.1, [(0.3, "a", "ba0", True, 1e16),
                         (0.30000000000000004, "a", "ba0", True, 1.0),
                         (0.3, "b", "ba1", True, 2.0),
                         (0.25, "a", "ba0", True, 1.0),
                         (0.7, "a", "ba0", True, 9.0)]))
    def test_non_integer_interval_matches_per_epoch_scan(self, case):
        interval, rows = case
        cfg = self._cfg(duration=13 * interval, consensus_interval=interval,
                        n_scanners=2)
        records = [
            MeasurementRecord(relay_id=fp(relay), ba_id=ba_id, thread_id=0,
                              start_time=None, end_time=end, measured_bw=bw, ok=ok)
            for end, relay, ba_id, ok, bw in rows
        ]
        assert _fold_consensus(records, cfg) == scan_fold_consensus(records, cfg)


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
        records = run_probe(cfg, targets[:8], seed="p")
        assert len(records) == 8
        assert {rec.start_time for rec in records} == {0.0}
        with pytest.raises(ValueError, match="threads"):
            run_probe(cfg, targets, seed="p")

    def test_constant_rate(self):
        relays, hosts, _load = honest_farm(n_middles=1)
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        (rec,) = run_probe(cfg, [fp("farm/middle0")], seed="p")
        assert rec.ok
        assert rec.measured_bw == pytest.approx(25 * MB)
        assert rec.start_time == 0.0
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

    def test_exit_cap_ignores_exit_host_load(self):
        # the exit's 30 MB/s host carries 20 MB/s of the exit's own user
        # load; the exit's cap is still its host's 30 MB/s, so the 25 MB/s
        # target is not slowed
        hosts = {
            "h": HostSpec(host_id="h", capacity=400 * MB),
            "hx": HostSpec(host_id="hx", capacity=30 * MB),
        }
        relays = {
            fp("t"): RelaySpec(relay_id=fp("t"), host_id="h",
                               advertised_bw=25 * MB),
            fp("x"): RelaySpec(relay_id=fp("x"), host_id="hx",
                               advertised_bw=200 * MB, role="exit"),
        }
        cfg = sim_config(Topology(relays=relays, hosts=hosts),
                         user_load={fp("x"): 20 * MB})
        (rec,) = run_probe(cfg, [fp("t")], seed="p")
        assert rec.ok
        assert rec.measured_bw == pytest.approx(25 * MB)

    def test_dead_path_record(self, monkeypatch):
        monkeypatch.setattr(FlowState, "flow_bandwidth",
                            lambda self, relay_id, ba_id: 0.0)
        relays, hosts, _load = honest_farm(n_middles=1)
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        (rec,) = run_probe(cfg, [fp("farm/middle0")], seed="p")
        assert not rec.ok
        assert rec.measured_bw == 0.0
        assert rec.start_time == 0.0
        assert rec.end_time == netsim._EPS
        assert rec.downloads == rec.bytes_total == 0

    def test_dead_path_ends_before_its_detection(self, monkeypatch):
        # the measurement is over before the detector would recognise it;
        # an honest target schedules no detection (for a cheating one, see
        # test_dead_path_of_a_cheating_relay_ends_before_its_detection)
        monkeypatch.setattr(FlowState, "flow_bandwidth",
                            lambda self, relay_id, ba_id: 0.0)
        relays, hosts, _load = honest_farm(n_middles=1)
        detector = DetectorModel(mode="parametric", detection_delay_packets=5)
        cfg = sim_config(Topology(relays=relays, hosts=hosts), detector=detector)
        (rec,) = run_probe(cfg, [fp("farm/middle0")], seed="p")
        assert not rec.ok
        assert rec.end_time == netsim._EPS
        assert rec.end_time < detector.detection_delay

    @pytest.mark.parametrize("policy", ["drop_on_measure", "cotormult_member",
                                        "detormult_member"])
    def test_dead_path_of_a_cheating_relay_ends_before_its_detection(
            self, monkeypatch, policy):
        # its detect event comes after the measurement ended, so it must
        # find the thread moved on and do nothing
        monkeypatch.setattr(FlowState, "flow_bandwidth",
                            lambda self, relay_id, ba_id: 0.0)
        topology, _load = mixed_policy_topology()
        target = next(r for r, spec in topology.relays.items()
                      if spec.policy == policy)
        detector = DetectorModel(mode="parametric", detection_delay_packets=5)
        cfg = sim_config(topology, detector=detector)
        (rec,) = run_probe(cfg, [target], seed="p")
        assert not rec.ok
        assert rec.end_time < detector.detection_delay

    def test_detection_after_the_measurement_ended_is_dropped(self):
        # a 100 s delay outlasts every measurement of the CoTorMult preset,
        # so each member's detection finds its thread idle or measuring
        # another relay: the probe and the run equal those of a detector
        # that misses every member
        preset = resources.files("torbwsim").joinpath("presets", "cotormult-n5.json")
        cfg = build_sim_config(json.loads(preset.read_bytes()))
        late = DetectorModel(mode="parametric", detection_delay_packets=200_000)
        blind = replace(late, false_negative_rate=1.0)
        member = cfg.topology.clusters.clusters[0].members[0]
        (rec,) = run_probe(replace(cfg, detector=late), [member], seed="p")
        assert rec.ok
        assert rec.duration == pytest.approx(57.2, abs=0.05)
        assert rec.duration < late.detection_delay
        assert run_probe(replace(cfg, detector=blind), [member], seed="p") == (rec,)
        result = run_simulation(replace(cfg, detector=late))
        assert max(r.duration for r in result.records) < late.detection_delay
        assert result == run_simulation(replace(cfg, detector=blind))

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

    def test_unknown_relay_rejected(self):
        relays, hosts, _load = honest_farm(n_middles=1)
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        with pytest.raises(ConfigError, match="unknown relay 'F+'"):
            run_probe(cfg, [fp("farm/middle0"), "F" * 40], seed="p")

    def test_repeated_relay_rejected(self):
        # measured twice, the two records would run one after the other,
        # not at the same instant
        relays, hosts, _load = honest_farm(n_middles=1)
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        with pytest.raises(ValueError, match="repeated"):
            run_probe(cfg, [fp("farm/middle0")] * 2, seed="p")

    def test_exit_rejected(self):
        # plan_round never measures an exit, and neither does a probe
        relays, hosts, _load = honest_farm(n_middles=1)
        cfg = sim_config(Topology(relays=relays, hosts=hosts))
        exit_id = next(r for r, spec in relays.items() if spec.role == "exit")
        with pytest.raises(ValueError, match="cannot probe exit"):
            run_probe(cfg, [exit_id], seed="p")

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
