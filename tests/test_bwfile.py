import logging
import random
from datetime import datetime, timezone
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import fp
from torbwsim import bwfile
from torbwsim.bwfile import (
    BandwidthEntry,
    BandwidthFile,
    ParseError,
    build_timeline,
    estimate_duration,
    from_records,
    infer_threads,
    parse_bandwidth_file,
    serialize_bandwidth_file,
)
from torbwsim.core import (
    ConfigError,
    InsufficientDataError,
    MeasurementRecord,
    is_fingerprint,
    records_to_jsonl,
)

# 2023-01-01T00:00:00 UTC
T0 = 1672531200

R1 = fp("relay-1")
R2 = fp("relay-2")
R3 = fp("relay-3")


def entry_file(end_times, node_ids=None, header_timestamp=T0, ba_id="ba0"):
    entries = tuple(
        BandwidthEntry(node_id=(node_ids[i] if node_ids else R1),
                       bw=25_000_000, end_time=T0 + int(t))
        for i, t in enumerate(end_times)
    )
    return BandwidthFile(header_timestamp=header_timestamp, entries=entries,
                         ba_id=ba_id)


class TestParse:
    def test_minimal_file(self):
        data = "\n".join([
            str(T0),
            "version=1.4.0",
            "=====",
            "bw=25000 node_id=$%s time=%d" % (R1, T0 + 600),
        ])
        bwf = parse_bandwidth_file(data, ba_id="ba0")
        assert bwf.header_timestamp == T0
        assert bwf.headers == (("version", "1.4.0"),)
        assert bwf.ba_id == "ba0"
        assert bwf.skipped_lines == 0
        (entry,) = bwf.entries
        assert entry.node_id == R1
        assert entry.bw == 25000
        assert entry.end_time == T0 + 600

    def test_accepts_bytes(self):
        data = ("%d\n=====\nbw=1 node_id=$%s time=%d\n" % (T0, R1, T0)).encode()
        bwf = parse_bandwidth_file(data)
        assert len(bwf.entries) == 1

    def test_iso_timestamps(self):
        data = "\n".join([
            str(T0),
            "=====",
            "bw=25000 node_id=$%s time=2023-01-01T00:10:00" % R1,
        ])
        bwf = parse_bandwidth_file(data)
        assert bwf.entries[0].end_time == T0 + 600

    def test_unknown_keys_kept_as_extras_in_order(self):
        data = "\n".join([
            str(T0),
            "=====",
            "bw=25000 nick=alpha node_id=$%s rtt=42 time=%d" % (R1, T0),
        ])
        bwf = parse_bandwidth_file(data)
        assert bwf.entries[0].extras == (("nick", "alpha"), ("rtt", "42"))

    def test_lowercase_fingerprint_normalized(self):
        data = "\n".join([
            str(T0),
            "=====",
            "bw=1 node_id=$%s time=%d" % (R1.lower(), T0),
        ])
        bwf = parse_bandwidth_file(data)
        assert bwf.entries[0].node_id == R1

    def test_entries_sorted_by_end_then_node(self):
        data = "\n".join([
            str(T0),
            "=====",
            "bw=1 node_id=$%s time=%d" % (R2, T0 + 100),
            "bw=1 node_id=$%s time=%d" % (R1, T0 + 100),
            "bw=1 node_id=$%s time=%d" % (R3, T0 + 50),
        ])
        bwf = parse_bandwidth_file(data)
        assert [(e.end_time, e.node_id) for e in bwf.entries] == sorted(
            [(T0 + 100, R2), (T0 + 100, R1), (T0 + 50, R3)]
        )

    @pytest.mark.parametrize("bad_line", [
        "bw=25000 time=%d" % T0,                          # no node_id
        "bw=fast node_id=$%s time=%d" % (R1, T0),          # bw not an int
        "bw=-5 node_id=$%s time=%d" % (R1, T0),            # negative bw
        "bw=1 node_id=%s time=%d" % (R1, T0),              # missing $
        "bw=1 node_id=$DEADBEEF time=%d" % T0,             # short fingerprint
        "bw=1 node_id=$%s time=not-a-time" % R1,           # bad timestamp
        "bw=1 node_id=$%s time=%d trailing" % (R1, T0),    # token without =
    ])
    def test_malformed_entries_skipped_and_counted(self, bad_line, caplog):
        data = "\n".join([
            str(T0),
            "=====",
            "bw=1 node_id=$%s time=%d" % (R1, T0),
            bad_line,
        ])
        with caplog.at_level(logging.WARNING):
            bwf = parse_bandwidth_file(data)
        assert len(bwf.entries) == 1
        assert bwf.skipped_lines == 1
        assert any("malformed" in r.message for r in caplog.records)

    def test_junk_header_line_counted(self):
        data = "\n".join([
            str(T0),
            "this is not a header",
            "=====",
            "bw=1 node_id=$%s time=%d" % (R1, T0),
        ])
        bwf = parse_bandwidth_file(data)
        assert bwf.skipped_lines == 1

    def test_missing_timestamp_rejected(self):
        with pytest.raises(ParseError, match="unix timestamp"):
            parse_bandwidth_file("version=1.4.0\n=====\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_bandwidth_file("")

    def test_no_valid_entries_rejected(self):
        data = "\n".join([str(T0), "=====", "junk junk junk"])
        with pytest.raises(ParseError, match="no valid relay entries"):
            parse_bandwidth_file(data)

    def test_missing_terminator_means_no_entries(self):
        data = "\n".join([
            str(T0),
            "bw=1 node_id=$%s time=%d" % (R1, T0),
        ])
        with pytest.raises(ParseError, match="no valid relay entries"):
            parse_bandwidth_file(data)

    def test_bad_node_id_in_constructor(self):
        with pytest.raises(ParseError, match="node_id"):
            BandwidthEntry(node_id="nope", bw=1, end_time=T0)


def strptime_parse_time(value):
    """Oracle: _parse_time as it was, strptime for every non-integer."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        dt = datetime.strptime(value, "%Y-%m-%dT%H:%M:%S")
    except ValueError:
        return None
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def dict_parse_entry(line):
    """Oracle: _parse_entry as it was, keys through a dict, fingerprint
    checked before the entry is built."""
    fields = []
    for token in line.split():
        if "=" not in token:
            return None
        key, _, value = token.partition("=")
        fields.append((key, value))
    keys = dict(fields)
    if not {"node_id", "bw", "time"} <= set(keys):
        return None
    node_id = keys["node_id"]
    if not node_id.startswith("$"):
        return None
    node_id = node_id[1:].upper()
    if not is_fingerprint(node_id):
        return None
    try:
        bw = int(keys["bw"])
    except ValueError:
        return None
    end_time = strptime_parse_time(keys["time"])
    if end_time is None or bw < 0:
        return None
    extras = tuple(
        (k, v) for k, v in fields if k not in ("node_id", "bw", "time")
    )
    return BandwidthEntry(node_id=node_id, bw=bw, end_time=end_time, extras=extras)


FULL_WIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14"
                                         "\uff15\uff16\uff17\uff18\uff19")
TIME_FORMS = (
    "%04d-%02d-%02dT%02d:%02d:%02d",      # canonical
    "%d-%d-%dT%d:%d:%d",                  # not zero-padded
    "%04d-%02d-%02dT%02d:%02d:%02d+00:00",
    "%04d-%02d-%02d %02d:%02d:%02d",
    "%04d%02d%02dT%02d%02d%02d",
    "%04d-%02d-%02dT%02d:%02d:%02d.250",
    "%04d-%02d-%02dt%02d:%02d:%02d",
)


@st.composite
def time_strings(draw):
    """Timestamps in the canonical form and near it, with fields that may
    be out of range (month 13, hour 24, second 60), or free text."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return str(draw(st.integers(-2 ** 40, 2 ** 40)))
    if kind == 1:
        return draw(st.text("0123456789-:T+. t\uff11", max_size=22))
    fields = (draw(st.integers(0, 10000)), draw(st.integers(0, 13)),
              draw(st.integers(0, 32)), draw(st.integers(0, 25)),
              draw(st.integers(0, 61)), draw(st.integers(0, 61)))
    text = draw(st.sampled_from(TIME_FORMS)) % fields
    return text.translate(FULL_WIDTH) if kind == 3 else text


def entry_tokens():
    good = st.sampled_from(("$" + R1, "$" + R2.lower(), "$" + R3[:20] + "g" * 20))
    return st.one_of(
        st.builds("node_id={}".format, st.one_of(
            good, st.sampled_from((R1, "$DEADBEEF", "$" + R1 + "0", "")))),
        st.builds("bw={}".format, st.one_of(
            st.integers(-5, 10 ** 9).map(str),
            st.sampled_from(("fast", "", "+7", "1_000", "\uff12\uff15", "2.5")))),
        st.builds("time={}".format, time_strings()),
        st.sampled_from(("nick=relay", "success=3", "a=b=c", "=v", "k=",
                         "trailing", "bw", "NODE_ID=$" + R1)),
    )


@st.composite
def entry_lines(draw):
    """Mostly complete entries, shuffled, some with duplicate or bad keys."""
    tokens = ["node_id=$" + draw(st.sampled_from((R1, R2.lower()))),
              "bw=%d" % draw(st.integers(0, 10 ** 8)),
              "time=" + draw(time_strings())]
    tokens = tokens[:draw(st.integers(0, 3))]
    tokens += draw(st.lists(entry_tokens(), max_size=5))
    return " ".join(draw(st.permutations(tokens)))


class TestParseMatchesOracle:
    @settings(max_examples=1000, deadline=None)
    @given(value=time_strings())
    @example(value="2022-04-15T10:00:00")
    @example(value="2022-4-5T1:2:3")
    @example(value="2022-04-15T10:00:00+00:00")
    @example(value="2022-04-15 10:00:00")
    @example(value="20220415T100000")
    @example(value="2022-04-15T10:00:00.5")
    @example(value="2022-04-15T10:00:00".translate(FULL_WIDTH))
    @example(value="2022-04-15T10:00:60")
    @example(value="2022-04-15T24:00:00")
    @example(value="2022-02-29T00:00:00")
    @example(value="0001-01-01T00:00:00")
    @example(value="2022-04-15t10:00:00")
    def test_parse_time(self, value):
        assert bwfile._parse_time(value) == strptime_parse_time(value)

    @settings(max_examples=1000, deadline=None)
    @given(line=entry_lines())
    @example(line="bw=1 node_id=$%s time=2022-04-15T10:00:00" % R1)
    @example(line="bw=1 bw=2 node_id=$%s time=5 time=6" % R1)
    @example(line="bw=1 node_id=$%s time=5 nick=a nick=b" % R1)
    @example(line="bw=1 node_id=$%s time=5 trailing" % R1)
    @example(line="bw=1 node_id=$%s time=5" % R1.lower())
    @example(line="bw=-1 node_id=$%s time=5" % R1)
    @example(line="bw=1 node_id=$%s node_id=$DEADBEEF time=5" % R1)
    @example(line="bw=1 node_id=$%s time=2022-4-5T1:2:3" % R1)
    def test_parse_entry(self, line):
        assert bwfile._parse_entry(line) == dict_parse_entry(line)


class TestSerialize:
    def test_canonical_form(self):
        bwf = BandwidthFile(
            header_timestamp=T0,
            entries=(
                BandwidthEntry(node_id=R1, bw=25000, end_time=T0 + 600,
                               extras=(("nick", "alpha"),)),
            ),
            headers=(("version", "1.4.0"),),
        )
        expected = (
            "%d\nversion=1.4.0\n=====\n"
            "bw=25000 node_id=$%s time=2023-01-01T00:10:00\n" % (T0, R1)
        ).encode("ascii")
        assert serialize_bandwidth_file(bwf) == expected

    def test_round_trip(self):
        original = entry_file([0, 40, 80], node_ids=[R1, R2, R3])
        parsed = parse_bandwidth_file(serialize_bandwidth_file(original), "ba0")
        assert parsed.header_timestamp == original.header_timestamp
        assert parsed.entries == original.entries

    def test_serialization_sorts_entries(self):
        bwf = BandwidthFile(
            header_timestamp=T0,
            entries=(
                BandwidthEntry(node_id=R2, bw=1, end_time=T0 + 100),
                BandwidthEntry(node_id=R1, bw=1, end_time=T0 + 50),
            ),
        )
        lines = serialize_bandwidth_file(bwf).decode().splitlines()
        assert lines[2].endswith("2023-01-01T00:00:50")
        assert lines[3].endswith("2023-01-01T00:01:40")


class TestFromRecords:
    def _rec(self, relay_id, end, ba_id="ba0", ok=True, bw=25_000_000.4):
        return MeasurementRecord(
            relay_id=relay_id, ba_id=ba_id, thread_id=0,
            start_time=end - 30.0, end_time=end,
            measured_bw=bw if ok else 0.0, ok=ok,
        )

    def test_offsets_and_floors_times(self):
        records = [self._rec(R1, 37.8), self._rec(R2, 75.2)]
        bwf = from_records(records, "ba0", base_time=T0)
        assert bwf.ba_id == "ba0"
        assert [e.end_time for e in bwf.entries] == [T0 + 37, T0 + 75]
        assert bwf.entries[0].bw == 25_000_000

    def test_failed_and_foreign_records_omitted(self):
        records = [
            self._rec(R1, 40.0),
            self._rec(R2, 80.0, ok=False),
            self._rec(R3, 120.0, ba_id="other"),
        ]
        bwf = from_records(records, "ba0", base_time=T0)
        assert [e.node_id for e in bwf.entries] == [R1]

    def test_no_usable_records_rejected(self):
        with pytest.raises(InsufficientDataError, match="ba0"):
            from_records([self._rec(R1, 40.0, ok=False)], "ba0")

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.sampled_from((R1, R2, R3)), st.sampled_from(("ba0", "other")),
        st.integers(0, 10**7), st.integers(1, 10**10), st.booleans(),
    ), max_size=20))
    def test_to_records_inverts_from_records(self, rows):
        # integral bandwidths and end times survive the file's 1 s and
        # 1 B/s resolution, so the round trip keeps (relay, end, bw)
        records = [self._rec(relay, float(end), ba_id=ba, ok=ok, bw=float(bw))
                   for relay, ba, end, bw, ok in rows]
        kept = sorted((relay, float(end), float(bw))
                      for relay, ba, end, bw, ok in rows if ok and ba == "ba0")
        assume(kept)
        back = bwfile.to_records([from_records(records, "ba0", base_time=0)])
        assert sorted((r.relay_id, r.end_time, r.measured_bw) for r in back) == kept
        assert {(r.ba_id, r.thread_id, r.start_time) for r in back} == {("ba0", 0, None)}

    def test_to_records_keeps_zero_bandwidth_as_failed(self):
        bwf = BandwidthFile(header_timestamp=T0, ba_id="ba0", entries=(
            BandwidthEntry(node_id=R1, bw=0, end_time=T0),
            BandwidthEntry(node_id=R2, bw=7, end_time=T0 + 1),
        ))
        zero, seven = bwfile.to_records([bwf])
        assert (zero.relay_id, zero.ok, zero.measured_bw) == (R1, False, 0.0)
        assert (seven.relay_id, seven.ok, seven.measured_bw) == (R2, True, 7.0)


class TestInferThreads:
    def test_single_thread_chain(self):
        bwf = entry_file([0, 40, 80, 120])
        ta = infer_threads(bwf)
        assert ta.num_threads == 1
        assert ta.assignment == (0, 0, 0, 0)
        assert ta.durations == (40.0, 40.0, 40.0)

    def test_close_ends_force_new_threads(self):
        bwf = entry_file([0, 10], node_ids=[R1, R2])
        ta = infer_threads(bwf)
        assert ta.num_threads == 2
        assert ta.durations == ()

    def test_gap_exactly_min_gap_is_sequential(self):
        bwf = entry_file([0, 25])
        ta = infer_threads(bwf)
        assert ta.num_threads == 1
        assert ta.durations == (25.0,)

    def test_gap_at_sequential_cutoff_not_a_duration(self):
        bwf = entry_file([0, 50])
        ta = infer_threads(bwf)
        assert ta.num_threads == 1
        assert ta.durations == ()

    def test_thread_count_independent_of_seed(self):
        # 0, 5, 10 end within one 25 s window: three threads, no fewer,
        # whatever the tie-breaking randomness does afterwards
        bwf = entry_file([0, 5, 10, 40, 45, 70, 95],
                         node_ids=[R1, R2, R3, R1, R2, R3, R1])
        counts = {infer_threads(bwf, rng_seed=s).num_threads
                  for s in range(20)}
        assert counts == {3}

    def test_assignment_covers_every_entry(self):
        bwf = entry_file([0, 5, 40, 45, 80, 85],
                         node_ids=[R1, R2, R1, R2, R1, R2])
        ta = infer_threads(bwf, rng_seed=3)
        assert len(ta.assignment) == 6
        assert ta.num_threads == 2
        assert set(ta.assignment) == {0, 1}

    def test_deterministic_for_seed(self):
        bwf = entry_file([0, 5, 40, 45, 80, 85],
                         node_ids=[R1, R2, R1, R2, R1, R2])
        assert infer_threads(bwf, rng_seed=9) == infer_threads(bwf, rng_seed=9)

    def test_entries_out_of_end_time_order_rejected(self):
        bwf = entry_file([0, 40, 30], node_ids=[R1, R2, R3])
        with pytest.raises(ValueError, match="end-time order"):
            infer_threads(bwf)


def scan_infer_threads(bwf, rng_seed=0):
    """Oracle: infer_threads as a scan of every thread for every entry."""
    rng = random.Random(str(rng_seed))
    last_end = []
    assignment = []
    durations = []
    for entry in bwf.entries:
        eligible = [
            t for t, end in enumerate(last_end)
            if entry.end_time - end >= bwfile.MIN_MEASUREMENT_GAP
        ]
        if eligible:
            thread = rng.choice(eligible)
            gap = entry.end_time - last_end[thread]
            if gap < bwfile.MAX_SEQUENTIAL_GAP:
                durations.append(float(gap))
            last_end[thread] = entry.end_time
        else:
            thread = len(last_end)
            last_end.append(entry.end_time)
        assignment.append(thread)
    return bwfile.ThreadAssignment(assignment=tuple(assignment),
                                   num_threads=len(last_end),
                                   durations=tuple(durations))


class TestInferThreadsMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.one_of(st.sampled_from((0, 1, 24, 25, 26, 49, 50, 51)),
                                   st.integers(0, 120)), max_size=80),
           rng_seed=st.one_of(st.integers(0, 5), st.just("s/it3/file1")))
    def test_same_assignment(self, gaps, rng_seed):
        bwf = entry_file(list(accumulate(gaps)))
        assert (infer_threads(bwf, rng_seed=rng_seed)
                == scan_infer_threads(bwf, rng_seed=rng_seed))


class TestEstimateDuration:
    def test_single_thread_file(self):
        bwf = entry_file([i * 37 for i in range(15)])
        est = estimate_duration([bwf], iterations=10)
        assert est.median == 37.0
        assert est.thread_count_histogram == {1: 10}
        assert est.sample_count == 10 * 14
        assert est.iterations == 10

    def test_samples_pool_across_files(self):
        a = entry_file([0, 30])
        b = entry_file([0, 40])
        est = estimate_duration([a, b], iterations=1)
        assert est.sample_count == 2
        assert est.median == 35.0

    def test_no_sequential_pairs_raises(self):
        bwf = entry_file([0, 5, 10], node_ids=[R1, R2, R3])
        with pytest.raises(InsufficientDataError, match="sequential"):
            estimate_duration([bwf], iterations=5)

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="at least one"):
            estimate_duration([])
        with pytest.raises(ValueError, match="iterations"):
            estimate_duration([entry_file([0, 40])], iterations=0)


def file_timeline(files, duration):
    """Reference: build_timeline as it was over bandwidth files, every entry
    on [end - duration, end] in file order."""
    return [
        bwfile.Interval(relay_id=entry.node_id, start=entry.end_time - duration,
                        end=float(entry.end_time))
        for bwf in files for entry in bwf.entries
    ]


class TestBuildTimeline:
    def test_intervals_extend_backwards_from_end(self):
        bwf = entry_file([100, 200], node_ids=[R1, R2], ba_id="ba7")
        timeline = build_timeline(bwfile.to_records([bwf]), duration=40.0)
        first, second = timeline.intervals
        assert (first.relay_id, first.start, first.end) == (R1, T0 + 60, T0 + 100)
        assert (second.relay_id, second.start, second.end) == (R2, T0 + 160, T0 + 200)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            build_timeline(bwfile.to_records([entry_file([0])]), duration=0.0)

    def test_known_start_times_are_kept(self):
        records = [
            MeasurementRecord(relay_id=R1, ba_id="ba0", thread_id=0,
                              start_time=5.0, end_time=60.0, measured_bw=1.0),
            MeasurementRecord(relay_id=R2, ba_id="ba0", thread_id=1,
                              start_time=None, end_time=60.0, measured_bw=1.0),
            MeasurementRecord(relay_id=R3, ba_id="ba0", thread_id=2,
                              start_time=50.0, end_time=70.0, measured_bw=0.0,
                              ok=False),
        ]
        timeline = build_timeline(records, duration=39.0)
        assert [(iv.relay_id, iv.start, iv.end) for iv in timeline.intervals] == [
            (R1, 5.0, 60.0), (R2, 21.0, 60.0), (R3, 50.0, 70.0)]

    @settings(max_examples=80, deadline=None)
    @given(
        files=st.lists(st.lists(st.tuples(
            st.sampled_from((R1, R2, R3)), st.sampled_from((0, 1, 25_000_000)),
            st.integers(0, 10**6),
        ), min_size=1, max_size=12), min_size=1, max_size=4),
        duration=st.one_of(st.sampled_from((39.0, 0.5, 3600.0)),
                           st.floats(1e-3, 1e6)),
    )
    def test_records_match_file_reference(self, files, duration):
        # a file repeats its entries, as an archive keeps a relay's last
        # measurement in every file until the next one
        corpus = [
            BandwidthFile(header_timestamp=T0, ba_id="ba%d" % i, entries=tuple(
                BandwidthEntry(node_id=relay, bw=bw, end_time=T0 + end)
                for relay, bw, end in rows + rows[:2]))
            for i, rows in enumerate(files)
        ]
        got = build_timeline(bwfile.to_records(corpus), duration).intervals
        want = file_timeline(corpus, duration)
        assert [repr(iv) for iv in got] == [repr(iv) for iv in want]


class TestLoadRecords:
    def test_file_directory_and_missing_path(self, tmp_path):
        rec = MeasurementRecord(relay_id=R1, ba_id="ba0", thread_id=1,
                                start_time=1.0, end_time=40.0, measured_bw=5.0)
        path = tmp_path / "records.jsonl"
        path.write_text(records_to_jsonl([rec]))
        assert bwfile.load_records(str(path)) == [rec]

        bwdir = tmp_path / "bw"
        bwdir.mkdir()
        (bwdir / "ba3.bw").write_bytes(serialize_bandwidth_file(
            entry_file([0, 40], node_ids=[R1, R2])))
        assert [(r.relay_id, r.ba_id, r.end_time) for r in
                bwfile.load_records(str(bwdir))] == [(R1, "ba3", T0), (R2, "ba3", T0 + 40)]

        with pytest.raises(ConfigError, match="does not exist"):
            bwfile.load_records(str(tmp_path / "nothing"))

    def test_relay_filter(self, tmp_path):
        recs = [MeasurementRecord(relay_id=relay, ba_id="ba0", thread_id=0,
                                  start_time=None, end_time=40.0, measured_bw=5.0)
                for relay in (R1, R2)]
        path = tmp_path / "records.jsonl"
        path.write_text(records_to_jsonl(recs))
        assert bwfile.load_records(str(path), {R2}) == recs[1:]
        # the filter does not skip checking the lines of other relays
        path.write_text(records_to_jsonl(recs) + "[1, 2]\n")
        with pytest.raises(ValueError, match="expected a JSON object"):
            bwfile.load_records(str(path), {R2})

        bwdir = tmp_path / "bw"
        bwdir.mkdir()
        (bwdir / "ba3.bw").write_bytes(serialize_bandwidth_file(
            entry_file([0, 40], node_ids=[R1, R2])))
        assert [(r.relay_id, r.end_time) for r in
                bwfile.load_records(str(bwdir), {R2})] == [(R2, T0 + 40)]
