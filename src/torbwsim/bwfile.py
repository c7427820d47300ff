"""Bandwidth-file wire format and timeline reconstruction.

The on-disk format is a simplified subset of the Tor bandwidth-file line
format:

    <unix timestamp>
    key=value                (optional header lines)
    =====
    bw=<int> node_id=$<40 HEX> time=<ISO-8601 or unix seconds>

Real files carry many more entry keys; unknown keys parse fine and are kept
in a per-entry extras map. The serializer always emits the three canonical
keys in the order above, one entry per line, entries sorted by end time and
then node id, so serialize(parse(x)) is a stable normal form and a byte-exact
identity on files this package wrote itself.

Bandwidth files record only the END of each measurement. The inference
helpers reconstruct what the scanner was doing: measurements on one thread
must be at least MIN_MEASUREMENT_GAP = 25 s apart (the scanner's five timed
downloads of at least 5 s each, scanner.DOWNLOADS_PER_MEASUREMENT times
scanner.MIN_DURATION_PER_DOWNLOAD), so threads can be re-assigned from end
times alone, and same-thread gaps under 50 s approximate measurement
durations.
"""

import logging
import math
import os
import random
import re
import statistics
from bisect import insort
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone

from .core import (ConfigError, InsufficientDataError, MeasurementRecord, is_fingerprint,
                   read_records_jsonl)
from .scanner import DOWNLOADS_PER_MEASUREMENT, MIN_DURATION_PER_DOWNLOAD

log = logging.getLogger(__name__)

MIN_MEASUREMENT_GAP = DOWNLOADS_PER_MEASUREMENT * MIN_DURATION_PER_DOWNLOAD
MAX_SEQUENTIAL_GAP = 50.0
DEFAULT_ASSUMED_DURATION = 39.0

_TERMINATOR = "====="
_CANONICAL_TIME = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-9]{2}:[0-9]{2}")


class ParseError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class BandwidthEntry:
    node_id: str
    bw: int
    end_time: int
    extras: tuple = ()  # ((key, value), ...) for unknown keys, parse order

    def __post_init__(self):
        if not is_fingerprint(self.node_id):
            raise ParseError("bad node_id %r" % (self.node_id,))


@dataclass(frozen=True)
class BandwidthFile:
    header_timestamp: int
    entries: tuple
    ba_id: str = "unknown"
    headers: tuple = ()  # ((key, value), ...) extra header lines
    skipped_lines: int = 0


def _parse_time(value: str):
    # the canonical form takes the fast path; strptime stays the arbiter for
    # every other string (unpadded fields, lowercase "t", non-ASCII digits),
    # and hour 24 goes to it too, so no newer fromisoformat rule leaks in
    canonical = _CANONICAL_TIME.fullmatch(value)
    if not canonical:
        try:
            return int(value)
        except ValueError:
            pass
    try:
        if canonical:
            dt = datetime.fromisoformat(value)
        else:
            dt = datetime.strptime(value, "%Y-%m-%dT%H:%M:%S")
    except ValueError:
        return None
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def _format_time(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def _parse_entry(line: str):
    node_id = bw = end = None
    extras = []
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            return None
        if key == "node_id":
            node_id = value
        elif key == "bw":
            bw = value
        elif key == "time":
            end = value
        else:
            extras.append((key, value))
    if node_id is None or bw is None or end is None or not node_id.startswith("$"):
        return None
    try:
        bw = int(bw)
    except ValueError:
        return None
    end_time = _parse_time(end)
    if end_time is None or bw < 0:
        return None
    try:  # the constructor is the one fingerprint check
        return BandwidthEntry(node_id=node_id[1:].upper(), bw=bw,
                              end_time=end_time, extras=tuple(extras))
    except ParseError:
        return None


def parse_bandwidth_file(data, ba_id: str = "unknown") -> BandwidthFile:
    """Parse one bandwidth file from bytes or text.

    The first line must be a unix timestamp. Malformed entry lines are
    skipped and counted in skipped_lines; a file with no valid entry at all
    is rejected.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    lines = data.splitlines()
    if not lines:
        raise ParseError("empty input: missing header timestamp line")
    try:
        header_timestamp = int(lines[0].strip())
    except ValueError:
        raise ParseError(
            "first line must be a unix timestamp, got %r" % (lines[0][:60],)
        )

    headers = []
    skipped = 0
    idx = 1
    saw_terminator = False
    while idx < len(lines):
        line = lines[idx].strip()
        idx += 1
        if line == _TERMINATOR:
            saw_terminator = True
            break
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            headers.append((key, value))
        else:
            skipped += 1
            log.warning("%s: unparsable header line %r", ba_id, line[:60])

    entries = []
    if saw_terminator:
        for line in lines[idx:]:
            line = line.strip()
            if not line:
                continue
            entry = _parse_entry(line)
            if entry is None:
                skipped += 1
                log.warning("%s: skipping malformed entry line %r", ba_id, line[:60])
            else:
                entries.append(entry)
    if not entries:
        raise ParseError("empty bandwidth file: no valid relay entries")
    entries.sort(key=lambda e: (e.end_time, e.node_id))
    return BandwidthFile(
        header_timestamp=header_timestamp,
        entries=tuple(entries),
        ba_id=ba_id,
        headers=tuple(headers),
        skipped_lines=skipped,
    )


def serialize_bandwidth_file(bwf: BandwidthFile) -> bytes:
    """Render the canonical wire form (drops unknown entry keys)."""
    out = [str(bwf.header_timestamp)]
    out.extend("%s=%s" % (k, v) for k, v in bwf.headers)
    out.append(_TERMINATOR)
    for entry in sorted(bwf.entries, key=lambda e: (e.end_time, e.node_id)):
        out.append(
            "bw=%d node_id=$%s time=%s"
            % (entry.bw, entry.node_id, _format_time(entry.end_time))
        )
    return ("\n".join(out) + "\n").encode("ascii")


def from_records(records, ba_id: str, base_time: int = 1650000000) -> BandwidthFile:
    """Build a bandwidth file from simulator records of one scanner.

    Simulation seconds are offset by base_time and floored to whole unix
    seconds, mirroring the 1 s resolution of real files. Failed measurements
    are omitted, like a scanner that publishes only successes.
    """
    entries = [
        BandwidthEntry(
            node_id=rec.relay_id,
            bw=int(round(rec.measured_bw)),
            end_time=base_time + int(rec.end_time),
        )
        for rec in records
        if rec.ba_id == ba_id and rec.ok
    ]
    if not entries:
        raise InsufficientDataError("no successful records for scanner %s" % ba_id)
    entries.sort(key=lambda e: (e.end_time, e.node_id))
    return BandwidthFile(
        header_timestamp=base_time, entries=tuple(entries), ba_id=ba_id
    )


def to_records(files, relay_ids=None) -> list:
    """Invert from_records: one record per entry, in file order, on thread 0
    and without a start time, which files do not keep. An entry with bw=0
    becomes a failed record. relay_ids, if given, keeps only the entries of
    those relays."""
    # relay_id, ba_id, thread_id, start_time, end_time, measured_bw passed by
    # position: keyword matching took a quarter of the time on large corpora
    return [
        MeasurementRecord(entry.node_id, bwf.ba_id, 0, None, float(entry.end_time),
                          float(entry.bw), ok=entry.bw > 0)
        for bwf in files for entry in bwf.entries
        if relay_ids is None or entry.node_id in relay_ids
    ]


def load_corpus(directory: str) -> list:
    """Parse every regular file of a directory in name order, stem as ba_id.

    Unparsable files are skipped with a warning. Raises ConfigError when the
    directory cannot be read or holds no parsable file.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ConfigError("cannot read bandwidth file directory: %s" % exc)
    files = []
    for name in names:
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            files.append(parse_bandwidth_file(data, ba_id=os.path.splitext(name)[0]))
        except ParseError as exc:
            log.warning("skipping %s: %s", path, exc)
    if not files:
        raise ConfigError("no parsable bandwidth files in %s" % directory)
    return files


def load_records(path: str, relay_ids=None) -> list:
    """Records of a records.jsonl file or of a bandwidth-file directory.

    relay_ids, if given, keeps only the records of those relays. A
    directory's other entries never become records; a records.jsonl file is
    still checked line by line in full.
    """
    if os.path.isfile(path):
        records = read_records_jsonl(path)
        if relay_ids is None:
            return records
        return [rec for rec in records if rec.relay_id in relay_ids]
    if os.path.isdir(path):
        return to_records(load_corpus(path), relay_ids)
    raise ConfigError("input path %s does not exist" % path)


# -- thread and duration inference -------------------------------------------


@dataclass(frozen=True)
class ThreadAssignment:
    assignment: tuple  # thread_id per entry, in end_time order
    num_threads: int
    durations: tuple   # same-thread gaps below MAX_SEQUENTIAL_GAP


def infer_threads(bwf: BandwidthFile, rng_seed=0) -> ThreadAssignment:
    """Assign entries to plausible scanner threads from end times alone.

    Walks entries in end-time order. A thread can accept an entry if its
    previous end lies at least MIN_MEASUREMENT_GAP earlier; the accepting
    thread is chosen uniformly at random. Entries no thread can accept open
    a new thread. Same-thread gaps shorter than MAX_SEQUENTIAL_GAP are
    collected as duration samples.

    As end times never decrease, a thread that can accept one entry can
    accept every later one, and busy threads free up in the order they
    last ended: they wait in a queue and move to a sorted ready list once
    their gap is long enough. Raises ValueError for an entry that ends
    before the one preceding it.
    """
    rng = random.Random(str(rng_seed))
    last_end = []  # per thread
    busy = deque()  # threads that cannot accept yet, by last end
    ready = []      # threads that can accept, by index
    assignment = []
    durations = []
    previous_end = -math.inf
    for entry in bwf.entries:
        end_time = entry.end_time
        if end_time < previous_end:
            raise ValueError("entries must be in end-time order: %r ends before %r"
                             % (end_time, previous_end))
        previous_end = end_time
        while busy and end_time - last_end[busy[0]] >= MIN_MEASUREMENT_GAP:
            insort(ready, busy.popleft())
        if ready:
            thread = rng.choice(ready)
            ready.remove(thread)
            gap = end_time - last_end[thread]
            if gap < MAX_SEQUENTIAL_GAP:
                durations.append(float(gap))
            last_end[thread] = end_time
        else:
            thread = len(last_end)
            last_end.append(end_time)
        busy.append(thread)
        assignment.append(thread)
    return ThreadAssignment(
        assignment=tuple(assignment),
        num_threads=len(last_end),
        durations=tuple(durations),
    )


@dataclass(frozen=True)
class DurationEstimate:
    median: float
    thread_count_histogram: dict
    sample_count: int
    iterations: int


def estimate_duration(files, iterations: int = 120, rng_seed=0) -> DurationEstimate:
    """Median measurement duration over repeated random thread assignments.

    Each iteration re-runs infer_threads on every file with a derived
    sub-seed; duration samples pool across everything. The histogram counts
    inferred thread numbers per (iteration, file) pair.
    """
    if not files:
        raise ValueError("need at least one bandwidth file")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    samples = []
    histogram = {}
    for it in range(iterations):
        for fi, bwf in enumerate(files):
            ta = infer_threads(bwf, rng_seed="%s/it%d/file%d" % (rng_seed, it, fi))
            samples.extend(ta.durations)
            histogram[ta.num_threads] = histogram.get(ta.num_threads, 0) + 1
    if not samples:
        raise InsufficientDataError("insufficient sequential measurements")
    return DurationEstimate(
        median=float(statistics.median(samples)),
        thread_count_histogram=histogram,
        sample_count=len(samples),
        iterations=iterations,
    )


@dataclass(frozen=True, slots=True)
class Interval:
    """One measurement placed on the reconstructed timeline."""

    relay_id: str
    start: float
    end: float


@dataclass(frozen=True)
class TimelineEstimate:
    intervals: tuple


def measurement_interval(rec, duration: float) -> tuple:
    """(start, end) of a record: its own start time when known, else the
    assumed duration ending at its end time."""
    if rec.start_time is not None:
        return rec.start_time, rec.end_time
    return rec.end_time - duration, rec.end_time


def build_timeline(records, duration: float = DEFAULT_ASSUMED_DURATION) -> TimelineEstimate:
    """Place every record, failed ones included, on its measurement_interval,
    in input order."""
    if not 0 < duration < math.inf:
        raise ValueError("duration must be finite and > 0")
    return TimelineEstimate(intervals=tuple(
        Interval(rec.relay_id, *measurement_interval(rec, duration))
        for rec in records
    ))
