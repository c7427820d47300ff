import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MB, fp
from torbwsim import core
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
    read_records_jsonl,
    records_to_jsonl,
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
        {"advertised_bw": math.inf},
        {"advertised_bw": math.nan},
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
        {"capacity": math.nan},
        {"capacity": math.inf},
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

    # cluster_of finds a relay's first cluster only, so a second listing
    # would escape the checks above and the attacker groups
    def test_member_listed_twice_rejected(self):
        members = (fp("m0"), fp("m1"), fp("m0"))
        with pytest.raises(ConfigError, match="cluster a lists relay '%s', "
                           "already in cluster a" % fp("m0")):
            ClusterTopology(clusters=(
                Cluster(cluster_id="a", members=members, host_id="h1"),))

    def test_member_in_two_clusters_rejected(self):
        with pytest.raises(ConfigError, match="cluster b lists relay '%s', "
                           "already in cluster a" % fp("m1")):
            ClusterTopology(clusters=(
                Cluster(cluster_id="a", members=(fp("m0"), fp("m1")), host_id="h1"),
                Cluster(cluster_id="b", members=(fp("m1"),), host_id="h2"),
            ))

    def test_duplicate_cluster_id_rejected(self):
        with pytest.raises(ConfigError, match="duplicate cluster_id 'a'"):
            ClusterTopology(clusters=(
                Cluster(cluster_id="a", members=(fp("m0"),), host_id="h1"),
                Cluster(cluster_id="a", members=(fp("m1"),), host_id="h2"),
            ))


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


FPS = [fp("r%d" % i) for i in range(3)]
# numbers as records hold them: ints, and floats from subnormal to the largest
NUMBERS = st.one_of(st.integers(-2 ** 64, 2 ** 64),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0, -0.0, 5e-324, 1e308, sys.float_info.max]))


@st.composite
def records(draw):
    """Records the writer accepts: any ba_id text, lone surrogates too."""
    end = draw(NUMBERS)
    start = draw(st.one_of(st.none(), NUMBERS))
    if start is not None and not start < end:
        start = None
    bw = draw(NUMBERS)
    return MeasurementRecord(
        draw(st.sampled_from(FPS)),
        draw(st.text(st.characters(exclude_categories=()), max_size=6)),
        draw(st.integers()), start, end, bw, draw(st.integers()), draw(st.integers()),
        bw > 0 and draw(st.booleans()))


class TestRecordsToJsonl:
    def _oracle(self, records):
        """records_to_jsonl as it was: one dict per record, field by field."""
        return "".join(json.dumps({
            "relay_id": rec.relay_id, "ba_id": rec.ba_id,
            "thread_id": rec.thread_id, "start": rec.start_time,
            "end": rec.end_time, "bw": rec.measured_bw,
            "bytes": rec.bytes_total, "downloads": rec.downloads, "ok": rec.ok,
        }) + "\n" for rec in records)

    def test_matches_per_record_dumps(self, tmp_path):
        path = tmp_path / "records.jsonl"
        # a bw written as an integer reads back as an int and is written so
        path.write_text(json.dumps(
            {"relay_id": fp("a"), "ba_id": "ba0", "end": 30, "bw": 25000000}) + "\n")
        (from_jsonl,) = read_records_jsonl(str(path))
        assert type(from_jsonl.measured_bw) is int
        records = [
            from_jsonl,
            MeasurementRecord(relay_id=fp("b"), ba_id="ba1", thread_id=3,
                              start_time=None, end_time=1e9 + 0.1,
                              measured_bw=12_345_678.9, bytes_total=2 ** 40,
                              downloads=9),
            MeasurementRecord(relay_id=fp("c"), ba_id="sk\u00e4nner-\u6e2c",
                              thread_id=0, start_time=1.5, end_time=40.25,
                              measured_bw=7.0 * MB),
            MeasurementRecord(relay_id=fp("d"), ba_id="ba0", thread_id=1,
                              start_time=0.0, end_time=1e-9, measured_bw=0.0,
                              ok=False),
        ]
        text = records_to_jsonl(records)
        assert text == self._oracle(records)
        assert '"bw": 25000000,' in text and '"start": null' in text
        assert "\\u00e4" in text and '"ok": false' in text
        path.write_text(text)
        assert read_records_jsonl(str(path)) == records

    def test_empty_input_is_one_newline(self):
        assert records_to_jsonl([]) == "\n"

    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(records(), min_size=1, max_size=4))
    @example(records=[MeasurementRecord(FPS[0], ba_id, 0, None, 1e308, 5e-324)
                      for ba_id in ('"', "\\", "\x00\x1f\x7f", "\U0001f600", "\ud800")])
    @example(records=[MeasurementRecord(FPS[1], "ba0", -3, -0.0, 2 ** 53 + 1, -0.0,
                                        ok=False, bytes_total=-1, downloads=10 ** 30)])
    def test_writes_the_bytes_of_json_dumps(self, records):
        text = records_to_jsonl(records)
        assert text == self._oracle(records)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "records.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            # ints stay ints and floats floats, -0.0 included
            assert repr(read_records_jsonl(path)) == repr(records)

    @pytest.mark.parametrize("field, value", [
        ("relay_id", "x"), ("relay_id", FPS[0].lower()), ("relay_id", FPS[0] + "\n"),
        ("relay_id", None), ("ba_id", 7), ("thread_id", True), ("thread_id", 1.5),
        ("start_time", -math.inf), ("start_time", math.nan), ("start_time", False),
        ("end_time", math.inf), ("end_time", 10 ** 400), ("end_time", True),
        ("measured_bw", True), ("measured_bw", math.nan), ("measured_bw", "5"),
        ("bytes_total", 1.5), ("downloads", "2"), ("ok", 1),
    ])
    def test_refuses_what_the_reader_refuses(self, field, value, tmp_path):
        good = MeasurementRecord(FPS[0], "ba0", 0, None, 30.0, 5.0, ok=False)
        bad = MeasurementRecord(**dict(
            {name: getattr(good, name) for name in good.__slots__}, **{field: value}))
        with pytest.raises(ValueError) as raised:
            records_to_jsonl([good, bad])
        # the oracle writes the line; the reader names the same fault
        path = tmp_path / "records.jsonl"
        path.write_text(self._oracle([bad]))
        with pytest.raises(ConfigError) as read:
            read_records_jsonl(str(path))
        assert str(raised.value) == "record 2: " + str(read.value).split(
            "bad record: ", 1)[1]
        # each names the field by its JSON key, an int beyond floats included
        key = {name: key for key, name, *_ in core._RECORD_KEYS}[field]
        assert str(raised.value).startswith("record 2: %s must be " % key)


def oracle_read_records_jsonl(path):
    """read_records_jsonl as it was: each key taken and checked in turn."""
    records = []
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ConfigError("cannot open records file %s: %s" % (path, exc))
    with fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ConfigError("%s:%d: not UTF-8 text: byte 0x%02x" % (
                    path, lineno, ord(line[exc.start]) - 0xDC00))
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise ValueError("expected a JSON object, got %s%s" % (
                        type(doc).__name__,
                        "; bandwidth files are read from their directory"
                        if type(doc) in (int, float) else ""))
                fields = {}
                for key, name, default, types, wanted in core._RECORD_KEYS:
                    value = (doc[key] if default is core._REQUIRED
                             else doc.get(key, default))
                    try:
                        bad = type(value) not in types or (
                            float in types and value is not None
                            and not math.isfinite(value)) or (
                            key == "relay_id" and not is_fingerprint(value))
                    except OverflowError:
                        raise ValueError("%s must be %s, got an int too large "
                                         "for a float" % (key, wanted))
                    if bad:
                        raise ValueError("%s must be %s, got %r" % (key, wanted, value))
                    fields[name] = value
                records.append(MeasurementRecord(**fields))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError("%s:%d: bad record: %s" % (path, lineno, exc))
    return records


RECORD_KEYS = [key for key, *_ in core._RECORD_KEYS]
# values a line may hold in place of a key's own: too large for a float, not
# finite, a bool for a number, ids that are no fingerprint, other JSON types
ODD_VALUES = st.sampled_from([
    10 ** 400, -10 ** 400, 2 ** 1024 - 2 ** 970, 2 ** 1024 - 2 ** 971, math.nan,
    math.inf, -math.inf, True, False, None, 0, -1, 1.5, "x", "", FPS[0].lower(),
    FPS[0] + "\n", FPS[1], [], {}, 0.0, -0.0, 5e-324])


@st.composite
def record_lines(draw):
    """A writer's line, then some keys dropped, some set to odd values or
    added, and the keys shuffled."""
    doc = json.loads(records_to_jsonl([draw(records())]))
    for key in draw(st.lists(st.sampled_from(RECORD_KEYS), max_size=2)):
        doc.pop(key, None)
    for key in draw(st.lists(st.sampled_from(RECORD_KEYS + ["extra"]), max_size=2)):
        doc[key] = draw(ODD_VALUES)
    return json.dumps(dict(draw(st.permutations(list(doc.items())))))


class TestReadRecordsJsonl:
    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(st.one_of(
        record_lines(),
        st.sampled_from(["", "  ", "[1, 2]", '"x"', "7", "1e400", "{", "null",
                         '{"relay_id": "%s", "ba_id": "b", "end": 1, "bw": 1} {}' % FPS[0],
                         '\ufeff{"relay_id": "%s", "ba_id": "b", "end": 1, "bw": 1}' % FPS[0],
                         '{"relay_id": "%s", "ba_id": "b", "end": Infinity, "bw": 1}' % FPS[0],
                         '{"relay_id": "%s", "ba_id": "b", "end": 1, "bw": NaN}' % FPS[0],
                         '{"relay_id": "%s", "ba_id": "b", "end": 1, "bw": 0}' % FPS[0],
                         '{"relay_id": "%s", "ba_id": "b", "start": 2, "end": 1, "bw": 1}'
                         % FPS[0]])), min_size=1, max_size=4))
    # an id first read as a fingerprint, then one that only looks like it
    @example(lines=['{"relay_id": "%s", "ba_id": "b", "end": 1, "bw": 1}' % FPS[0],
                    '{"relay_id": "%s", "ba_id": "b", "end": 1, "bw": 1}' % FPS[0].lower()])
    # an int the largest float rounds to, and one past it
    @example(lines=['{"relay_id": "%s", "ba_id": "b", "end": %d, "bw": 1}'
                    % (FPS[0], 2 ** 1024 - 2 ** 971 + 1),
                    '{"relay_id": "%s", "ba_id": "b", "end": %d, "bw": 1}'
                    % (FPS[0], 2 ** 1024 - 2 ** 970)])
    def test_matches_per_key_reader(self, lines):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "records.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            assert outcome(read_records_jsonl, path) == outcome(
                oracle_read_records_jsonl, path)


def outcome(read, path):
    try:
        return repr(read(path))
    except ConfigError as exc:
        return "ConfigError: %s" % exc


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
