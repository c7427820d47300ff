import math

import pytest

from conftest import MB, fp
from torbwsim.core import (
    Cluster,
    ClusterTopology,
    ConfigError,
    ConsensusSnapshot,
    HostSpec,
    MeasurementRecord,
    RelaySpec,
    Topology,
    aggregate_consensus,
    is_fingerprint,
    selection_probability,
)


def test_is_fingerprint():
    assert is_fingerprint("A" * 40)
    assert is_fingerprint(fp("anything"))
    assert not is_fingerprint("a" * 40)      # lowercase
    assert not is_fingerprint("A" * 39)
    assert not is_fingerprint("G" * 40)      # not hex
    assert not is_fingerprint("A" * 40 + "\n")
    assert not is_fingerprint(123)


class TestRelaySpec:
    def test_valid(self):
        relay = RelaySpec(relay_id=fp("r"), host_id="h", advertised_bw=MB)
        assert relay.role == "middle" and relay.policy == "honest"

    @pytest.mark.parametrize("kwargs", [
        {"relay_id": "nothex"},
        {"advertised_bw": 0.0},
        {"advertised_bw": -1.0},
        {"role": "bridge"},
        {"policy": "greedy"},
    ])
    def test_invalid(self, kwargs):
        base = {"relay_id": fp("r"), "host_id": "h", "advertised_bw": MB}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            RelaySpec(**base)


class TestHostSpec:
    def test_usable_capacity(self):
        host = HostSpec(host_id="h", capacity=50 * MB, efficiency=0.95)
        assert host.usable_capacity == pytest.approx(47.5 * MB)

    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0.0},
        {"efficiency": 0.0},
        {"efficiency": 1.5},
        {"kind": "mainframe"},
        {"kind": "web_server"},
    ])
    def test_invalid(self, kwargs):
        base = {"host_id": "h", "capacity": MB}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            HostSpec(**base)


class TestTopology:
    def test_unknown_host_rejected(self):
        relay = RelaySpec(relay_id=fp("r"), host_id="missing", advertised_bw=MB)
        with pytest.raises(ConfigError, match="missing"):
            Topology(relays={relay.relay_id: relay}, hosts={})

    def test_cluster_member_must_exist(self):
        host = HostSpec(host_id="h", capacity=MB)
        clusters = ClusterTopology(clusters=(
            Cluster(cluster_id="c", members=(fp("ghost"),), host_id="h"),
        ))
        with pytest.raises(ConfigError):
            Topology(relays={}, hosts={"h": host}, clusters=clusters)

    def test_cotormult_member_must_live_on_cluster_host(self):
        hosts = {
            "h1": HostSpec(host_id="h1", capacity=MB),
            "h2": HostSpec(host_id="h2", capacity=MB),
        }
        relay = RelaySpec(relay_id=fp("m"), host_id="h1", advertised_bw=MB,
                          policy="cotormult_member")
        clusters = ClusterTopology(clusters=(
            Cluster(cluster_id="c", members=(relay.relay_id,), host_id="h2"),
        ))
        with pytest.raises(ConfigError, match="cluster host"):
            Topology(relays={relay.relay_id: relay}, hosts=hosts,
                     clusters=clusters)

    def test_detormult_requires_dedicated_server(self):
        hosts = {"h1": HostSpec(host_id="h1", capacity=MB)}
        relay = RelaySpec(relay_id=fp("m"), host_id="h1", advertised_bw=MB,
                          policy="detormult_member")
        clusters = ClusterTopology(clusters=(
            Cluster(cluster_id="c", members=(relay.relay_id,), host_id="h1"),
        ))
        with pytest.raises(ConfigError, match="dedicated"):
            Topology(relays={relay.relay_id: relay}, hosts=hosts,
                     clusters=clusters)

    def test_dedicated_server_kind_enforced(self):
        hosts = {
            "h1": HostSpec(host_id="h1", capacity=MB),
            "d1": HostSpec(host_id="d1", capacity=MB),  # wrong kind
        }
        relay = RelaySpec(relay_id=fp("m"), host_id="h1", advertised_bw=MB,
                          policy="detormult_member")
        clusters = ClusterTopology(
            clusters=(Cluster(cluster_id="c", members=(relay.relay_id,),
                              host_id="h1"),),
            dedicated_server="d1",
        )
        with pytest.raises(ConfigError):
            Topology(relays={relay.relay_id: relay}, hosts=hosts,
                     clusters=clusters)

    def test_unknown_dedicated_server_rejected(self):
        hosts = {"h1": HostSpec(host_id="h1", capacity=MB)}
        relay = RelaySpec(relay_id=fp("m"), host_id="h1", advertised_bw=MB,
                          policy="detormult_member")
        clusters = ClusterTopology(
            clusters=(Cluster(cluster_id="c", members=(relay.relay_id,),
                              host_id="h1"),),
            dedicated_server="nope",
        )
        with pytest.raises(ConfigError, match="unknown dedicated_server host"):
            Topology(relays={relay.relay_id: relay}, hosts=hosts,
                     clusters=clusters)


class TestMeasurementRecord:
    def _record(self, **kwargs):
        base = dict(relay_id=fp("r"), ba_id="ba0", thread_id=0,
                    start_time=0.0, end_time=30.0, measured_bw=MB)
        base.update(kwargs)
        return MeasurementRecord(**base)

    def test_duration(self):
        assert self._record().duration == pytest.approx(30.0)

    def test_end_after_start(self):
        with pytest.raises(ValueError):
            self._record(end_time=0.0)

    def test_ok_requires_positive_bw(self):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite measured_bw > 0"):
                self._record(measured_bw=bad)
        failed = self._record(measured_bw=0.0, ok=False)
        assert not failed.ok

    def test_start_time_optional(self):
        rec = self._record(start_time=None)
        assert rec.start_time is None


class TestConsensus:
    def test_median_across_authorities(self):
        votes = [
            ("ba0", {fp("r"): 10.0}),
            ("ba1", {fp("r"): 20.0}),
            ("ba2", {fp("r"): 90.0}),
        ]
        snap = aggregate_consensus(votes, epoch=1)
        assert snap.weights[fp("r")] == 20.0

    def test_even_vote_count_uses_midpoint(self):
        votes = [("ba0", {fp("r"): 10.0}), ("ba1", {fp("r"): 30.0})]
        assert aggregate_consensus(votes).weights[fp("r")] == 20.0

    def test_prior_carried_for_unmeasured(self):
        prior = ConsensusSnapshot(epoch=0, weights={fp("old"): 5.0})
        votes = [("ba0", {fp("new"): 10.0})]
        snap = aggregate_consensus(votes, prior=prior, epoch=1)
        assert snap.weights == {fp("old"): 5.0, fp("new"): 10.0}

    def test_fresh_vote_overrides_prior(self):
        prior = ConsensusSnapshot(epoch=0, weights={fp("r"): 5.0})
        votes = [("ba0", {fp("r"): 10.0})]
        assert aggregate_consensus(votes, prior=prior).weights[fp("r")] == 10.0

    def test_no_votes_rejected(self):
        with pytest.raises(ValueError, match="no votes"):
            aggregate_consensus([])

    def test_empty_vote_rejected(self):
        with pytest.raises(ValueError, match="ba0"):
            aggregate_consensus([("ba0", {})])

    def test_snapshot_totals(self):
        snap = ConsensusSnapshot(epoch=0, weights={fp("a"): 1.0, fp("b"): 3.0})
        assert snap.total_weight == 4.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ConsensusSnapshot(epoch=0, weights={fp("a"): -1.0})

    def test_selection_probability(self):
        snap = ConsensusSnapshot(epoch=0, weights={fp("a"): 1.0, fp("b"): 3.0})
        assert selection_probability(snap, [fp("b")]) == pytest.approx(0.75)
        assert selection_probability(snap, [fp("a"), fp("b")]) == 1.0
        assert selection_probability(snap, [fp("missing")]) == 0.0

    def test_selection_probability_degenerate(self):
        snap = ConsensusSnapshot(epoch=0, weights={})
        with pytest.raises(ValueError, match="degenerate"):
            selection_probability(snap, [fp("a")])
