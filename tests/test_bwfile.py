import contextlib
import dataclasses
import logging
import math
import os
import random
import signal
import statistics
import tempfile
import threading
from datetime import datetime, timezone
from itertools import accumulate
from types import SimpleNamespace

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

    @pytest.mark.parametrize("ts, kept", [
        (-62135596800, True),     # 0001-01-01T00:00:00
        (253402300799, True),     # 9999-12-31T23:59:59
        (-62135596801, False),    # year 0
        (253402300800, False),    # year 10000
        (99999999999999, False),
    ])
    def test_unix_time_must_be_in_years_1_to_9999(self, ts, kept):
        # serialize writes every time it reads back: outside years 1-9999
        # a time is a malformed entry, as it cannot be written as a date
        data = "%d\n=====\nbw=1 node_id=$%s time=%d\nbw=2 node_id=$%s time=%d\n" % (
            T0, R1, T0, R2, ts)
        bwf = parse_bandwidth_file(data)
        assert bwf.skipped_lines == (0 if kept else 1)
        assert [e.end_time for e in bwf.entries if e.node_id == R2] == (
            [ts] if kept else [])
        again = parse_bandwidth_file(serialize_bandwidth_file(bwf))
        assert again.entries == bwf.entries


def strptime_parse_time(value):
    """Oracle: _parse_time as it was, strptime for every non-integer, and an
    integer only within years 1-9999 UTC, the times serialize can write."""
    try:
        ts = int(value)
    except ValueError:
        pass
    else:
        return ts if -62135596800 <= ts <= 253402300799 else None
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


SHARED_MEMO = {}  # one _parse_entry memo across every test_parse_entry example


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
    # the day cache: days that do not exist, the ends of the range, and
    # clocks that no day has
    @example(value="2023-02-29T12:00:00")
    @example(value="2024-02-29T12:00:00")
    @example(value="2022-04-00T10:00:00")
    @example(value="2022-13-15T10:00:00")
    @example(value="0000-01-01T00:00:00")
    @example(value="0000-12-31T23:59:59")
    @example(value="9999-12-31T23:59:59")
    @example(value="2022-04-15T10:60:00")
    @example(value="2022-04-15T23:59:59")
    def test_parse_time(self, value):
        assert bwfile._parse_time(value) == strptime_parse_time(value)

    def test_day_cache_keeps_no_clock(self):
        # a day read again, with a bad clock and then a good one, and a day
        # that does not exist read twice, each as the oracle reads it
        values = ["2024-02-29T10:00:00", "2024-02-29T10:61:00",
                  "2024-02-29T24:00:00", "2024-02-29T10:00:60",
                  "2024-02-29T23:59:59", "2023-02-29T10:00:00",
                  "2023-02-29T10:00:00", "2023-03-01T00:00:00"]
        assert ([bwfile._parse_time(v) for v in values]
                == [strptime_parse_time(v) for v in values])

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
        # a memo that has seen earlier examples' tokens parses like an empty one
        want = dict_parse_entry(line)
        assert bwfile._parse_entry(line, {}) == want
        assert bwfile._parse_entry(line, SHARED_MEMO) == want
        assert bwfile._parse_entry(line, SHARED_MEMO) == want


@st.composite
def corpora(draw):
    """Entry lines of 2-4 files, drawn partly from one shared pool, so whole
    lines and their tokens recur from file to file."""
    pool = draw(st.lists(entry_lines(), min_size=1, max_size=6))
    line = st.one_of(st.sampled_from(pool), entry_lines())
    return draw(st.lists(st.lists(line, max_size=6), min_size=2, max_size=4))


class WarningCount(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def warnings_of(fn, messages=False):
    """(result or ParseError/ConfigError raised, count of warnings bwfile
    logged, or with messages=True the warnings themselves) of fn()."""
    handler = WarningCount()
    bwfile.log.addHandler(handler)
    try:
        result = fn()
    except (ParseError, ConfigError) as exc:
        result = exc
    finally:
        bwfile.log.removeHandler(handler)
    return result, handler.messages if messages else len(handler.messages)


def corpus_text(lines):
    return "\n".join([str(T0), "version=1.4.0", "=====", *lines, ""])


class TestCorpusMemo:
    @settings(max_examples=100, deadline=None)
    @given(corpus=corpora())
    @example(corpus=[["bw=1 node_id=$%s time=0" % R1,
                      "bw=2 node_id=$%s time=1970-01-01T00:00:00" % R2],
                     ["bw=3 node_id=$%s time=1970-01-01T00:00:00" % R1,
                      "bw=4 node_id=$%s time=0" % R2]])
    @example(corpus=[["bw=1 node_id=$%s time=5" % R1.lower()],
                     ["bw=1 node_id=$%s time=5" % R1]])
    @example(corpus=[["bw=1 node_id=$%s time=2022-13-01T00:00:00" % R1,
                      "bw=1 node_id=$%s time=5" % R2],
                     ["bw=2 node_id=$%s time=2022-13-01T00:00:00" % R2,
                      "bw=2 node_id=$%s time=2022-13-01T00:00:00 time=6" % R1]])
    @example(corpus=[["bw=1 node_id=$%s time=5 nick=a trailing" % R1,
                      "bw=2 node_id=$%s time=6" % R2],
                     ["nick=a bw=1 time=5 node_id=$%s" % R1,
                      "trailing bw=1 node_id=$%s time=5 nick=a" % R1]])
    def test_load_corpus_matches_fresh_parses(self, corpus):
        texts = {"f%d" % i: corpus_text(lines) for i, lines in enumerate(corpus)}
        want, want_warnings = [], 0
        for name, text in texts.items():
            bwf, warned = warnings_of(
                lambda: parse_bandwidth_file(text.encode(), ba_id=name))
            want_warnings += warned
            if isinstance(bwf, ParseError):
                want_warnings += 1  # load_corpus's "skipping" line
            else:
                want.append(bwf)
        with tempfile.TemporaryDirectory() as directory:
            for name, text in texts.items():
                with open(os.path.join(directory, name + ".bw"), "wb") as fh:
                    fh.write(text.encode())
            got, got_warnings = warnings_of(lambda: bwfile.load_corpus(directory))
        if want:
            assert got == want  # entries with their extras, and skipped_lines
        else:
            assert isinstance(got, ConfigError)
        assert got_warnings == want_warnings

    def test_repeated_tokens_share_their_pair(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / (name + ".bw")).write_text(corpus_text(
                ["bw=1 node_id=$%s time=5 nick=relay" % R1]))
        first, second = bwfile.load_corpus(str(tmp_path))
        assert first.entries == second.entries
        assert first.entries[0].extras[0] is second.entries[0].extras[0]


def write_corpus(directory, corpus):
    for i, lines in enumerate(corpus):
        with open(os.path.join(directory, "f%d.bw" % i), "w") as fh:
            fh.write(corpus_text(lines))


class TestRelayScopedLoad:
    @settings(max_examples=150, deadline=None)
    @given(corpus=corpora(), relays=st.sets(st.sampled_from((R1, R2, R3))))
    # a repeated node_id token: the last one names the entry's relay
    @example(corpus=[["bw=1 node_id=$%s node_id=$%s time=5" % (R1, R2)],
                     ["bw=2 node_id=$%s node_id=$%s time=6" % (R2, R1)]],
             relays={R1})
    # node_id= inside another token's value, alone or beside the real token
    @example(corpus=[["bw=1 x=node_id=$%s time=5" % R1,
                      "bw=1 node_id=$%s time=5" % R1],
                     ["bw=2 node_id=$%s time=6 x=node_id=$%s" % (R2, R1)]],
             relays={R1})
    # tokens separated by whitespace other than " ", as str.split cuts them
    @example(corpus=[["bw=1\tnode_id=$%s\ttime=5" % R1],
                     ["bw=2\u3000node_id=$%s\u3000time=6" % R1]], relays={R1})
    @example(corpus=[["bw=1 node_id=$%s time=5" % R1.lower()],
                     ["bw=1 node_id=$%s time=5" % R2]], relays={R1})
    @example(corpus=[["bw=1 node_id=%s time=5" % R1, "bw=2 node_id=$%s time=6" % R1],
                     ["bw=1 node_id=%s time=5" % R2]], relays={R1})
    # every valid entry names another relay, after a malformed line that does
    @example(corpus=[["bw=x node_id=$%s time=5" % R2, "bw=1 node_id=$%s time=5" % R2,
                      "bw=2 node_id=$%s time=6" % R1],
                     ["bw=3 node_id=$%s time=7" % R3]], relays={R1})
    # no valid entry in one file, then in any
    @example(corpus=[["bw=x node_id=$%s time=5" % R2, "junk"],
                     ["bw=1 node_id=$%s time=5" % R1]], relays={R1})
    @example(corpus=[["bw=x node_id=$%s time=5" % R2],
                     ["bw=1 node_id=$%s" % R1]], relays={R1})
    def test_matches_full_load(self, corpus, relays):
        with tempfile.TemporaryDirectory() as directory:
            write_corpus(directory, corpus)
            full, full_warnings = warnings_of(lambda: bwfile.load_corpus(directory))
            scoped, scoped_warnings = warnings_of(
                lambda: bwfile.load_corpus(directory, relays))
        if isinstance(full, ConfigError):
            assert isinstance(scoped, ConfigError)
        else:
            assert [f.ba_id for f in scoped] == [f.ba_id for f in full]
            assert all(e.node_id in relays for f in scoped for e in f.entries)
            want = [rec for rec in bwfile.to_records(full) if rec.relay_id in relays]
            assert bwfile.to_records(scoped) == want
        assert scoped_warnings <= full_warnings

    def test_warns_only_for_lines_that_may_name_a_listed_relay(
            self, tmp_path, monkeypatch, caplog):
        parsed = []
        parse_entry = bwfile._parse_entry

        def spy(line, memo):
            parsed.append(line)
            return parse_entry(line, memo)
        monkeypatch.setattr(bwfile, "_parse_entry", spy)
        # node_id= inside a value, or without "$", may hide any relay
        listed_bad = ["bw=12x node_id=$%s time=6" % R1,
                      "bw=1 x=node_id=$%s time=6" % R2, "bw=1 node_id=%s time=6" % R2]
        other_bad = ["bw=12x node_id=$%s time=6" % R2, "bw=12x\tnode_id=$%s time=6" % R2]
        (tmp_path / "a.bw").write_text(corpus_text(
            ["bw=1 node_id=$%s time=5" % R1, *listed_bad, *other_bad]))
        # passed-over lines are parsed, silently, until one is a valid entry
        hunted = ["bw=x node_id=$%s time=5" % R2, "bw=1 node_id=$%s time=5" % R2]
        (tmp_path / "b.bw").write_text(corpus_text(
            hunted + ["bw=y node_id=$%s time=7" % R2]))
        with caplog.at_level(logging.WARNING):
            a, b = bwfile.load_corpus(str(tmp_path), {R1})
        assert [r.getMessage() for r in caplog.records] == [
            "a: skipping malformed entry line %r" % line[:60] for line in listed_bad]
        assert parsed == ["bw=1 node_id=$%s time=5" % R1, *listed_bad, *hunted]
        assert (len(a.entries), a.skipped_lines) == (1, 3)
        assert (b.entries, b.skipped_lines) == ((), 0)


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

    @settings(max_examples=1000, deadline=None)
    @given(ts=st.integers(-62135596800, 253402300799))
    @example(ts=-62135596800)
    @example(ts=253402300799)
    @example(ts=-30610224001)     # 0999-12-31T23:59:59
    @example(ts=-30610224000)     # 1000-01-01T00:00:00
    @example(ts=0)
    def test_format_time_matches_datetime(self, ts):
        dt = datetime.fromtimestamp(ts, tz=timezone.utc)
        text = bwfile._format_time(ts)
        # the year always takes four digits; datetime's strftime pads years
        # below 1000 only on some Python versions, its isoformat on all
        assert text == dt.replace(tzinfo=None).isoformat()
        if dt.year >= 1000:
            assert text == dt.strftime("%Y-%m-%dT%H:%M:%S")
        assert bwfile._parse_time(text) == ts

    @pytest.mark.parametrize("ts", [-62135596801, 253402300800])
    def test_time_outside_years_1_to_9999_not_written(self, ts):
        bwf = BandwidthFile(header_timestamp=T0, entries=(
            BandwidthEntry(node_id=R1, bw=1, end_time=ts),))
        with pytest.raises(ValueError, match="outside years 1-9999"):
            serialize_bandwidth_file(bwf)

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


def keyword_from_records(records, ba_id, base_time):
    """from_records as it was: each entry built and checked by its __init__."""
    entries = [
        BandwidthEntry(node_id=rec.relay_id, bw=int(round(rec.measured_bw)),
                       end_time=base_time + int(rec.end_time))
        for rec in records if rec.ba_id == ba_id and rec.ok
    ]
    if not entries:
        raise InsufficientDataError("no successful records for scanner %s" % ba_id)
    entries.sort(key=bwfile._ENTRY_ORDER)
    return BandwidthFile(header_timestamp=base_time, entries=tuple(entries), ba_id=ba_id)


def keyword_to_records(files):
    """to_records as it was: each record built and checked by its __init__."""
    return [
        MeasurementRecord(entry.node_id, bwf.ba_id, 0, None, float(entry.end_time),
                          float(entry.bw), ok=entry.bw > 0)
        for bwf in files for entry in bwf.entries
    ]


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

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.sampled_from((R1, R2, "x", R1.lower(), R2 + "\n")), st.sampled_from(("ba0", "other")),
        st.sampled_from((37.8, 0.0, 1e6, math.inf)), st.booleans(),
    ), max_size=8))
    # an end time that int() refuses, then a bad id on the same record
    @example(rows=[(R1, "ba0", 5.0, True), ("x", "ba0", math.inf, True)])
    def test_matches_keyword_entries(self, rows):
        records = [MeasurementRecord(relay_id=relay, ba_id=ba, thread_id=0,
                                     start_time=None, end_time=end,
                                     measured_bw=7.6 if ok else 0.0, ok=ok)
                   for relay, ba, end, ok in rows]

        def outcome(build):
            try:
                return build(records, "ba0", base_time=T0)
            except (ParseError, OverflowError, InsufficientDataError) as exc:
                return repr(exc)
        assert outcome(from_records) == outcome(keyword_from_records)

    @settings(max_examples=200, deadline=None)
    @given(files=st.lists(st.tuples(
        st.sampled_from(("ba0", "ba1")),
        st.lists(st.tuples(st.sampled_from((R1, R2)),
                           st.sampled_from((0, -1, 7, 10 ** 6, 2 ** 53 + 1, math.inf)),
                           st.sampled_from((T0, 0, -5, T0 + 0.5))), max_size=6)),
        max_size=3))
    # hand-built entries: bw=0 and bw=-1 are failed records, and bw=inf
    # fails MeasurementRecord's finite check, after an entry that passes
    @example(files=[("ba0", [(R1, 0, T0), (R2, -1, T0)])])
    @example(files=[("ba0", [(R1, 7, T0)]), ("ba1", [(R2, math.inf, T0)])])
    def test_to_records_matches_keyword_records(self, files):
        bwfs = [BandwidthFile(header_timestamp=T0, ba_id=ba_id, entries=tuple(
            BandwidthEntry(node_id=node_id, bw=bw, end_time=end)
            for node_id, bw, end in entries)) for ba_id, entries in files]

        def outcome(convert):
            try:
                records = convert(iter(bwfs))
            except ValueError as exc:
                return repr(exc)
            assert {type(r) for r in records} <= {MeasurementRecord}
            return [dataclasses.astuple(r) for r in records]
        assert outcome(bwfile.to_records) == outcome(keyword_to_records)

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

    # NaN compares false with everything, so it slipped through the order
    # check and gave a thread count and durations with no error
    @pytest.mark.parametrize("end_times", [[0, math.nan, 40, 80], [math.nan],
                                           [0, 40, math.nan], [0, 40, math.inf],
                                           [-math.inf, 0, 40], [math.inf]])
    def test_non_finite_end_time_rejected(self, end_times):
        bwf = float_file(end_times)
        with pytest.raises(ValueError, match="end time .* is not finite"):
            infer_threads(bwf)
        with pytest.raises(ValueError, match="end time .* is not finite"):
            estimate_duration([entry_file([0, 40]), bwf])


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


def gap_lists():
    """End-time gaps that often sit on the thread and duration cut-offs."""
    return st.lists(st.one_of(st.sampled_from((0, 1, 24, 25, 26, 49, 50, 51)),
                              st.integers(0, 120)), max_size=80)


class TestInferThreadsMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(gaps=gap_lists(),
           rng_seed=st.one_of(st.integers(0, 5), st.just("s/it3/file1")))
    # n threads become ready at once and are drawn down to one: ready lists
    # of every length up to n, so the draw's redraw of an index >= n runs
    @example(gaps=[0] * 5 + [25] + [0] * 4, rng_seed=0)
    @example(gaps=[0] * 9 + [30] + [0] * 8, rng_seed="s/it3/file1")
    @example(gaps=[0] * 16 + [25] + [0] * 15, rng_seed=3)
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

    def test_every_file_checked_before_any_walk(self, monkeypatch):
        walks = []
        walk_threads = bwfile._walk_threads
        monkeypatch.setattr(bwfile, "_walk_threads",
                            lambda *args: walks.append(args) or walk_threads(*args))
        with pytest.raises(ValueError, match="end-time order"):
            estimate_duration([entry_file([0, 40]), entry_file([40, 0])], iterations=3)
        assert walks == []


def pooled_estimate_duration(files, iterations, rng_seed=0):
    """Oracle: estimate_duration as the median and length of one list that
    pools every duration sample."""
    samples = []
    histogram = {}
    for it in range(iterations):
        for fi, bwf in enumerate(files):
            ta = infer_threads(bwf, rng_seed="%s/it%d/file%d" % (rng_seed, it, fi))
            samples.extend(ta.durations)
            histogram[ta.num_threads] = histogram.get(ta.num_threads, 0) + 1
    if not samples:
        raise InsufficientDataError("insufficient sequential measurements")
    return bwfile.DurationEstimate(median=float(statistics.median(samples)),
                                   thread_count_histogram=histogram,
                                   sample_count=len(samples), iterations=iterations)


def float_file(end_times):
    """A file of directly built entries whose end times are floats."""
    return BandwidthFile(header_timestamp=T0, entries=tuple(
        BandwidthEntry(node_id=R1, bw=1, end_time=T0 + t) for t in end_times))


def _estimate_or_error(estimate, files, iterations, rng_seed):
    try:
        return estimate(files, iterations, rng_seed)
    except InsufficientDataError as exc:
        return "insufficient data: %s" % exc


class TestEstimateDurationMatchesPooled:
    @settings(max_examples=200, deadline=None)
    @given(files=st.lists(gap_lists().map(lambda gaps: entry_file(list(accumulate(gaps)))),
                          min_size=1, max_size=4),
           iterations=st.integers(1, 6),
           rng_seed=st.one_of(st.integers(0, 5), st.just("s")))
    @example(files=[entry_file([0, 30, 60, 90])], iterations=1, rng_seed=0)  # 3 samples
    @example(files=[entry_file([0, 30]), entry_file([0, 40])],
             iterations=1, rng_seed=0)  # 2 samples, different middle values
    @example(files=[entry_file([0, 30, 60]), entry_file([0, 40])],
             iterations=2, rng_seed=0)  # 6 samples, equal middle values
    @example(files=[float_file([0.0, 25.5, 51.25, 76.5]), float_file([0.1, 26.35])],
             iterations=2, rng_seed=1)  # float durations, 8 samples
    @example(files=[float_file([0.0, 25.5, 51.25])], iterations=3, rng_seed=2)
    @example(files=[entry_file([0, 5, 10], node_ids=[R1, R2, R3]), entry_file([])],
             iterations=2, rng_seed=0)  # no sample at all
    def test_same_estimate(self, files, iterations, rng_seed):
        assert (_estimate_or_error(estimate_duration, files, iterations, rng_seed)
                == _estimate_or_error(pooled_estimate_duration, files, iterations,
                                      rng_seed))


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


class TestLoadRecordsOneFileAtATime:
    @settings(max_examples=100, deadline=None)
    @given(corpus=corpora(), relays=st.one_of(
        st.none(), st.sets(st.sampled_from((R1, R2, R3)))))
    @example(corpus=[["junk"], ["bw=x node_id=$%s time=5" % R1]], relays=None)
    def test_equals_records_of_the_corpus(self, corpus, relays):
        with tempfile.TemporaryDirectory() as directory:
            write_corpus(directory, corpus)
            want = warnings_of(lambda: bwfile.to_records(
                bwfile.load_corpus(directory, relays)), messages=True)
            got = warnings_of(lambda: bwfile.load_records(directory, relays),
                              messages=True)
        if isinstance(want[0], ConfigError):
            assert isinstance(got[0], ConfigError) and str(got[0]) == str(want[0])
        else:
            assert got[0] == want[0]
        assert got[1] == want[1]  # the same warnings, in the same order


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


# -- forked workers -------------------------------------------------------------


@contextlib.contextmanager
def forced_workers(n):
    """Directory loads and estimate_duration split their work over n
    workers (n=1: serially), whatever its size and the CPUs there are."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        mp.setattr(bwfile, "MIN_BYTES_PER_WORKER", 1)
        mp.setattr(bwfile, "MIN_STEPS_PER_WORKER", 1)
        mp.setattr(bwfile, "SCOPED_PARSE_SHARE", 1)
        yield


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def shown(result):
    """A load's result, with an error as its type and message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return result


def loads_of(directory, relays):
    """load_corpus and load_records of a directory: each one's files or
    records (or error), and the warnings it logged, in order."""
    corpus, corpus_warnings = warnings_of(
        lambda: bwfile.load_corpus(directory, relays), messages=True)
    records, records_warnings = warnings_of(
        lambda: bwfile.load_records(directory, relays), messages=True)
    return shown(corpus), corpus_warnings, shown(records), records_warnings


def write_awkward_corpus(directory, corpus):
    """corpus, beside a file that does not parse and a subdirectory, which
    a load passes over without a word."""
    write_corpus(directory, corpus)
    with open(os.path.join(directory, "f1.bad"), "w") as fh:
        fh.write("not a timestamp\n")
    os.mkdir(os.path.join(directory, "f1.dir"))


def write_big_corpus(directory, files=6, entries=600):
    """Files large enough that a worker's packed result overfills a pipe."""
    for i in range(files):
        bwf = BandwidthFile(header_timestamp=T0, entries=tuple(
            BandwidthEntry(node_id=fp("big/%d/%d" % (i, j)), bw=j + 1,
                           end_time=T0 + 13 * j)
            for j in range(entries)))
        with open(os.path.join(directory, "f%d.bw" % i), "wb") as fh:
            fh.write(serialize_bandwidth_file(bwf))


end_time_files = st.one_of(
    gap_lists().map(lambda gaps: entry_file(list(accumulate(gaps)))),
    st.lists(st.floats(0, 120), max_size=40).map(
        lambda gaps: float_file(list(accumulate(gaps)))))


# Python 3.12 and later warn on os.fork when a library such as OpenBLAS,
# which the test process loads with numpy, runs threads of its own; the
# forked workers here run no numpy code
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestForkedWorkers:
    @pytest.fixture(autouse=True)
    def deadline(self):
        """A wait on a worker that never ends fails the test, not hangs it."""
        def expire(_signum, _frame):
            raise TimeoutError("still waiting on a forked worker after 60 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_worker_count(self):
        with forced_workers(3):
            assert bwfile._worker_count(10, 1) == 3
            assert bwfile._worker_count(2, 1) == 2
            assert bwfile._worker_count(0, 1) == 1
        with forced_workers(1):  # as under taskset -c 0
            assert bwfile._worker_count(10, 1) == 1
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with forced_workers(3):
                assert bwfile._worker_count(10, 1) == 1
        finally:
            stop.set()
            thread.join()

    def test_split_keeps_order_and_drops_empty_runs(self):
        assert bwfile._split(list(range(7)), 3) == [[0, 1], [2, 3], [4, 5, 6]]
        assert bwfile._split(range(2), 3) == [range(0, 1), range(1, 2)]
        assert bwfile._split([], 3) == [[]]

    @pytest.mark.parametrize("n", [2, 3])
    def test_loads_fork_one_worker_per_run(self, tmp_path, n):
        write_big_corpus(str(tmp_path), files=4, entries=5)
        forks = []
        fork = os.fork
        with forced_workers(n), pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", lambda: forks.append(1) or fork())
            bwfile.load_corpus(str(tmp_path))
            assert len(forks) == n - 1
            bwfile.estimate_duration(bwfile.load_corpus(str(tmp_path)), iterations=5)
            assert len(forks) == 3 * (n - 1)
        assert_no_child_left()

    def test_scoped_load_counts_a_quarter_of_its_bytes(self, tmp_path):
        write_big_corpus(str(tmp_path), files=4, entries=50)
        size = sum(os.path.getsize(os.path.join(str(tmp_path), n)) for n in os.listdir(str(tmp_path)))
        forks = []
        fork = os.fork
        with forced_workers(2), pytest.MonkeyPatch.context() as mp:
            mp.setattr(bwfile, "SCOPED_PARSE_SHARE", 4)
            mp.setattr(bwfile, "MIN_BYTES_PER_WORKER", size // 3)
            mp.setattr(os, "fork", lambda: forks.append(1) or fork())
            bwfile.load_records(str(tmp_path))
            assert len(forks) == 1
            bwfile.load_records(str(tmp_path), {fp("big/0/0")})
            assert len(forks) == 1
        assert_no_child_left()

    @settings(max_examples=40, deadline=None)
    @given(files=st.lists(end_time_files, min_size=1, max_size=4),
           iterations=st.integers(1, 7),
           rng_seed=st.one_of(st.integers(0, 5), st.just("s")),
           n=st.sampled_from((2, 3)))
    @example(files=[float_file([0.0, 25.5, 51.25, 76.5]), float_file([0.1, 26.35])],
             iterations=5, rng_seed=1, n=3)
    @example(files=[entry_file([0, 5, 10], node_ids=[R1, R2, R3])],
             iterations=4, rng_seed=0, n=2)  # no sample at all
    def test_estimate_duration_matches_serial(self, files, iterations, rng_seed, n):
        with forced_workers(1):
            want = _estimate_or_error(estimate_duration, files, iterations, rng_seed)
        with forced_workers(n):
            got = _estimate_or_error(estimate_duration, files, iterations, rng_seed)
        assert got == want
        if not isinstance(want, str):  # and the histogram in the same order
            assert list(got.thread_count_histogram) == list(want.thread_count_histogram)
        assert_no_child_left()

    def test_estimate_duration_on_big_files_matches_serial(self, tmp_path):
        write_big_corpus(str(tmp_path))
        files = bwfile.load_corpus(str(tmp_path))
        with forced_workers(1):
            want = estimate_duration(files, iterations=6, rng_seed=3)
        for n in (2, 3):
            with forced_workers(n):
                assert estimate_duration(files, iterations=6, rng_seed=3) == want

    @settings(max_examples=40, deadline=None)
    @given(corpus=corpora(), relays=st.one_of(
        st.none(), st.sets(st.sampled_from((R1, R2, R3)))), n=st.sampled_from((2, 3)))
    @example(corpus=[["junk"], ["bw=x node_id=$%s time=5" % R1]], relays=None, n=3)
    @example(corpus=[["bw=1 node_id=$%s time=5 nick=a" % R1, "bw=12x"],
                     ["bw=2 node_id=$%s time=6 nick=a" % R2],
                     ["bw=3 node_id=$%s time=7" % R3, "junk"]], relays={R1, R3}, n=3)
    def test_loads_match_serial(self, corpus, relays, n):
        with tempfile.TemporaryDirectory() as directory:
            write_awkward_corpus(directory, corpus)
            with forced_workers(1):
                want = loads_of(directory, relays)
            with forced_workers(n):
                got = loads_of(directory, relays)
        assert got == want
        assert_no_child_left()

    @pytest.mark.parametrize("n", [2, 3])
    def test_warnings_and_skipped_files_in_name_order(self, tmp_path, caplog, n):
        bad_bw, no_bw = "bw=12x node_id=$%s time=6" % R2, "bw=x node_id=$%s time=5" % R3
        write_awkward_corpus(str(tmp_path), [
            ["bw=1 node_id=$%s time=5" % R1, bad_bw],
            ["junk", "bw=2 node_id=$%s time=6" % R2],
            [no_bw],
            ["bw=3 node_id=$%s time=7" % R3, "more junk"]])

        def logged(load):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                result = load()
            return result, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

        for load in (lambda: bwfile.load_corpus(str(tmp_path)),
                     lambda: bwfile.load_records(str(tmp_path))):
            with forced_workers(1):
                want = logged(load)
            with forced_workers(n):
                assert logged(load) == want
        assert [message for _name, _level, message in want[1]] == [
            "f0: skipping malformed entry line %r" % bad_bw[:60],
            "skipping %s: first line must be a unix timestamp, got 'not a timestamp'"
            % os.path.join(str(tmp_path), "f1.bad"),
            "f1: skipping malformed entry line 'junk'",
            "f2: skipping malformed entry line %r" % no_bw[:60],
            "skipping %s: empty bandwidth file: no valid relay entries"
            % os.path.join(str(tmp_path), "f2.bw"),
            "f3: skipping malformed entry line 'more junk'"]

    def test_rebuilt_files_share_node_ids_and_extras(self, tmp_path):
        """A worker's files come back as separate copies; the rebuild makes
        equal node ids and extras pairs across files one object again."""
        line = "bw=%d node_id=$%s time=%d nick=a"
        write_corpus(str(tmp_path), [[line % (1, R1, 5)], [line % (2, R1, 6)],
                                     [line % (3, R1, 7)], [line % (4, R1, 8)]])
        with forced_workers(2):
            files = bwfile.load_corpus(str(tmp_path))
        rebuilt = [bwf.entries[0] for bwf in files[2:]]  # the worker's run
        assert [e.bw for e in rebuilt] == [3, 4]
        assert rebuilt[0].node_id is rebuilt[1].node_id
        assert rebuilt[0].extras[0] is rebuilt[1].extras[0]
        assert_no_child_left()

    def test_no_parsable_file_is_a_config_error(self, tmp_path):
        write_awkward_corpus(str(tmp_path), [["junk"], ["bw=x"]])
        for n in (1, 2, 3):
            with forced_workers(n), pytest.raises(ConfigError, match="no parsable"):
                bwfile.load_records(str(tmp_path))
        assert_no_child_left()

    def test_generator_closed_mid_stream_leaves_no_child(self, tmp_path):
        write_big_corpus(str(tmp_path))
        with forced_workers(3):
            files = bwfile._corpus_files(str(tmp_path), None)
            next(files)
            files.close()
        assert_no_child_left()

    def test_consumer_error_leaves_no_child(self, tmp_path):
        write_big_corpus(str(tmp_path))
        with forced_workers(3), pytest.raises(KeyboardInterrupt):
            for _bwf in bwfile._corpus_files(str(tmp_path), None):
                raise KeyboardInterrupt
        assert_no_child_left()

    def test_failed_load_worker_raises(self, tmp_path, monkeypatch):
        write_big_corpus(str(tmp_path))

        def fail(paths, relay_ids):
            raise ValueError("no")
        monkeypatch.setattr(bwfile, "_packed_files", fail)
        with forced_workers(2), pytest.raises(RuntimeError, match="forked worker"):
            bwfile.load_corpus(str(tmp_path))
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_failed_walk_raises_and_leaves_no_child(self, monkeypatch, where):
        files = [entry_file([i * 30 for i in range(40)])]
        parent = os.getpid()
        walk_threads = bwfile._walk_threads

        def walk(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise KeyboardInterrupt
            return walk_threads(*args)
        monkeypatch.setattr(bwfile, "_walk_threads", walk)
        error = RuntimeError if where == "child" else KeyboardInterrupt
        with forced_workers(3), pytest.raises(error):
            estimate_duration(files, iterations=6)
        assert_no_child_left()

    @pytest.mark.parametrize("fail_at", [0, 1])
    @pytest.mark.parametrize("call", ["fork", "pipe"])
    def test_fork_failure_runs_the_rest_here(self, tmp_path, caplog, monkeypatch, call, fail_at):
        """os.fork or os.pipe failing (EAGAIN under a process limit, ENOMEM,
        EMFILE) on the fail_at-th worker: that run and the ones after it go
        in this process, with the same result and warnings as serially."""
        write_awkward_corpus(str(tmp_path), [
            ["bw=1 node_id=$%s time=5" % R1, "junk"],
            ["bw=2 node_id=$%s time=6" % R2, "bw=12x"],
            ["bw=3 node_id=$%s time=30" % R3, "more junk"],
            ["bw=4 node_id=$%s time=60" % R1, "bw=4 node_id=$%s time=90" % R2]])

        def both():
            files = bwfile.load_corpus(str(tmp_path))
            return (files, bwfile.load_records(str(tmp_path)),
                    estimate_duration(files, iterations=5, rng_seed=2))

        def logged():
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                result = both()
            return result, [(r.levelno, r.getMessage()) for r in caplog.records]

        with forced_workers(1):
            want = logged()
        real = getattr(os, call)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) > fail_at:
                raise OSError(11, "Resource temporarily unavailable")
            return real()
        monkeypatch.setattr(os, call, flaky)
        with forced_workers(3):
            assert logged() == want
        assert calls
        assert bwfile.log.filters == []
        assert_no_child_left()

    def test_worker_items_come_one_at_a_time(self, monkeypatch):
        """This process unpacks a worker's items as they are taken, so it
        never holds all of a worker's run at once."""
        loads = []
        real_loads = bwfile.marshal.loads
        monkeypatch.setattr(bwfile, "marshal", SimpleNamespace(
            dumps=bwfile.marshal.dumps,
            loads=lambda data: loads.append(1) or real_loads(data)))
        with bwfile._forked(lambda part: (x * x for x in part), [range(3), range(5, 7)]) as results:
            assert next(results) == 0
            assert len(loads) == 1
            assert list(results) == [1, 4, 25, 36]
            assert len(loads) == 5
        assert_no_child_left()

    def test_killed_worker_raises(self):
        def die(part):
            yield part
            os.kill(os.getpid(), signal.SIGKILL)
        with pytest.raises(RuntimeError, match="forked worker"):
            with bwfile._forked(die, [1]) as results:
                list(results)
        assert_no_child_left()
