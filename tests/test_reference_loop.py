"""The planned download path against the reference loop, and the order in
which threads at one instant take a round's plans."""

import json
from dataclasses import replace
from importlib import resources
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loop
import test_cli
from conftest import MB, fp, honest_farm, sim_config
from torbwsim import netsim
from torbwsim.core import (
    POLICIES,
    Cluster,
    ClusterTopology,
    HostSpec,
    RelaySpec,
    SimulationError,
    Topology,
)
from torbwsim.netsim import (
    DetectorModel,
    FlowState,
    build_sim_config,
    run_probe,
    run_simulation,
)
from torbwsim.scanner import MeasurementPlan, plan_round

# few distinct values, so that rates, durations and event times tie often
CAPACITIES = (20 * MB, 50 * MB, 100 * MB)
ADVERTISED = (10 * MB, 25 * MB, 50 * MB)
LOADS = (0.0, 10 * MB, 25 * MB)


@st.composite
def scenarios(draw):
    """A small SimConfig over every policy, and the middle, if any, whose
    path dies once its host carries a second measurement flow."""
    hosts = {
        "h%d" % i: HostSpec(host_id="h%d" % i,
                            capacity=draw(st.sampled_from(CAPACITIES)),
                            efficiency=draw(st.sampled_from((1.0, 0.95))))
        for i in range(3)
    }
    hosts["ded"] = HostSpec(host_id="ded", capacity=50 * MB,
                            kind="dedicated_server", efficiency=0.22)
    relays, load, activation = {}, {}, {}
    members = {"cotormult_member": [], "detormult_member": []}
    for i in range(draw(st.integers(1, 6))):
        policy = draw(st.sampled_from(sorted(POLICIES)))
        # CoTorMult members live on their cluster's host h0, DeTorMult
        # members on h1; the others share any host with them
        host_id = {"cotormult_member": "h0", "detormult_member": "h1"}.get(
            policy, draw(st.sampled_from(("h0", "h1", "h2"))))
        relay_id = fp("middle%d" % i)
        relays[relay_id] = RelaySpec(relay_id=relay_id, host_id=host_id,
                                     advertised_bw=draw(st.sampled_from(ADVERTISED)),
                                     policy=policy)
        members.get(policy, []).append(relay_id)
        load[relay_id] = draw(st.sampled_from(LOADS))
        if draw(st.booleans()):
            activation[relay_id] = draw(st.sampled_from((0.0, 600.0, 1800.0)))
    for i in range(draw(st.integers(1, 2))):
        # a 40 MB/s exit host caps the fastest targets
        host_id = "x%d" % i
        hosts[host_id] = HostSpec(host_id=host_id,
                                  capacity=draw(st.sampled_from((40 * MB, 400 * MB))))
        relays[fp("exit%d" % i)] = RelaySpec(
            relay_id=fp("exit%d" % i), host_id=host_id,
            advertised_bw=draw(st.sampled_from((100 * MB, 200 * MB))), role="exit")
    clusters = ClusterTopology(clusters=tuple(
        Cluster(cluster_id=host_id, members=tuple(members[policy]), host_id=host_id)
        for policy, host_id in (("cotormult_member", "h0"), ("detormult_member", "h1"))
        if members[policy]
    ), dedicated_server="ded")
    mode = draw(st.sampled_from(("ip_filter", "parametric")))
    detector = DetectorModel(
        mode=mode,
        # 5 packets is 2.5 ms, 20,000 packets 10 s: past a whole download
        detection_delay_packets=draw(st.sampled_from((None, 0, 5, 2_000, 20_000))),
        false_negative_rate=draw(st.sampled_from((0.0, 0.3))),
        false_positive_rate=draw(st.sampled_from((0.0, 0.5))),
    )
    interval = draw(st.sampled_from((1800.0, 3600.0)))
    cfg = sim_config(
        Topology(relays=relays, hosts=hosts, clusters=clusters),
        user_load=load,
        threads=draw(st.integers(1, 8)),
        n_scanners=draw(st.integers(1, 3)),
        round_budget=draw(st.sampled_from((45.0, 600.0, 3600.0))),
        duration=draw(st.sampled_from((1.0, 2.0))) * 3600.0,
        consensus_interval=interval,
        detector=detector,
        seed=draw(st.integers(0, 3)),
        activation_times=activation,
    )
    middles = sorted(r for r, spec in relays.items() if spec.role != "exit")
    return cfg, draw(st.sampled_from([None] + middles))


def outcome(run, *args):
    """run(*args), or the SimulationError it raised, as comparable values."""
    try:
        return run(*args)
    except SimulationError as exc:
        return "SimulationError", str(exc)


class TestPlansMatchReferenceLoop:
    @given(scenarios())
    @settings(max_examples=120, deadline=None)
    def test_same_result_and_probe_records(self, scenario):
        cfg, dead = scenario
        flow_bandwidth = FlowState.flow_bandwidth

        def dying(state, relay_id, ba_id):
            # a function of the host's flows, as the real rate is: a change
            # to them empties the solve that flow_rate gave with the rate
            rate = flow_bandwidth(state, relay_id, ba_id)
            host_id = state._flow_host[relay_id, ba_id]
            if relay_id == dead and len(state._host_flows[host_id]) > 1:
                return 0.0
            return rate

        middles = sorted(r for r, spec in cfg.topology.relays.items()
                         if spec.role != "exit")[:8]
        with mock.patch.object(FlowState, "flow_bandwidth", dying):
            assert outcome(run_simulation, cfg) == outcome(reference_loop.run, cfg)
            assert (run_probe(cfg, middles, "p")
                    == reference_loop.run_probe_with(cfg, middles, "p"))

    def test_presets_and_delayed_detector(self):
        # the presets, and the delayed-detector scenario whose outputs
        # test_cli pins
        def preset(name):
            return json.loads(resources.files("torbwsim").joinpath(
                "presets", name + ".json").read_text())

        docs = [preset(name) for name in ("all-honest", "cotormult-n5", "detormult-3x6")]
        for doc in docs + [test_cli.TestSimulate.delayed_detector_config()]:
            cfg = build_sim_config(doc)
            for seed in range(3):
                seeded = replace(cfg, seed=seed)
                assert run_simulation(seeded) == reference_loop.run(seeded)


class TestWithinInstantOrder:
    def test_threads_finishing_at_one_instant_take_plans_in_thread_order(self):
        # four identical idle hosts: the first four measurements run at one
        # rate from time 0 and end at one instant, in the order their
        # threads scheduled them, and each thread then takes the next plan
        relays, hosts, _load = honest_farm(n_middles=12)
        cfg = sim_config(Topology(relays=relays, hosts=hosts), threads=4)
        plans = plan_round(cfg.scanners[0], cfg.topology.relays.values(),
                           "%s/ba0/round0" % cfg.seed)
        records = run_simulation(cfg).records
        first = records[:4]
        assert len({rec.end_time for rec in first}) == 1
        assert [rec.thread_id for rec in first] == [0, 1, 2, 3]
        assert [rec.relay_id for rec in records[:8]] == [p.target for p in plans[:8]]
        assert [rec.thread_id for rec in records[4:8]] == [0, 1, 2, 3]
        assert all(rec.start_time == first[0].end_time for rec in records[4:8])

    def test_round_leaves_a_target_mid_measurement_queued(self):
        # thread 0 still measures X when the next round puts X at the head
        # of the queue: idle thread 1 takes Y, and X waits for thread 0
        relays, hosts, _load = honest_farm(n_middles=3)
        x, y, z = sorted(r for r, spec in relays.items() if spec.role != "exit")
        exit_id = next(r for r, spec in relays.items() if spec.role == "exit")
        cfg = sim_config(Topology(relays=relays, hosts=hosts), threads=2)
        loop = netsim._Loop(cfg, cfg.seed)
        plan = {t: MeasurementPlan(target=t, exit=exit_id) for t in (x, y, z)}
        loop._enqueue("ba0", [plan[x]], 0.0)
        loop._enqueue("ba0", [plan[x], plan[y], plan[z]], 0.0)
        first, second = loop.threads["ba0"]
        assert (first.target, second.target) == (x, y)
        assert list(loop.queues["ba0"]) == [plan[x], plan[z]]
        loop.run(cfg.duration)
        assert [(rec.relay_id, rec.thread_id) for rec in loop.records] == [
            (x, 0), (y, 1), (x, 0), (z, 1)]
