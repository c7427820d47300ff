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

Archives repeat an entry's tokens from file to file until the relay is
measured again, so load_corpus parses the files of one worker with one
memo: each distinct token maps to its (key, value) pair, a node_id value to
its canonical fingerprint, a time to its unix seconds and a bw to its
integer (None where the check fails), and the pair of an unknown key is the
very tuple kept in extras, shared by that worker's files. A large directory
is split into one run of files per CPU, each but the first parsed in a
forked worker (see _corpus_files). A memo lives for one load; the files
returned, or their records, equal file-by-file parses, skipped lines and
warnings included, in the same order whatever the number of workers.

A relay-scoped load (load_corpus or load_records given relay_ids) parses
only the entry lines that can name a listed relay: a line whose one
"node_id=" token names another relay is passed over unparsed, so its file
keeps only the listed relays' entries and a malformed line among those
passed over is neither counted nor reported.

Bandwidth files record only the END of each measurement. The inference
helpers reconstruct what the scanner was doing: measurements on one thread
must be at least MIN_MEASUREMENT_GAP = 25 s apart (the scanner's five timed
downloads of at least 5 s each, scanner.DOWNLOADS_PER_MEASUREMENT times
scanner.MIN_DURATION_PER_DOWNLOAD), so threads can be re-assigned from end
times alone, and same-thread gaps under 50 s approximate measurement
durations.
"""

import logging
import marshal
import math
import os
import random
import re
import stat
import sys
import threading
from bisect import insort
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import lru_cache
from operator import attrgetter, le
from time import gmtime

from .core import (DEFAULT_ASSUMED_DURATION, ConfigError, InsufficientDataError,
                   MeasurementRecord, is_fingerprint, read_records_jsonl)
from .scanner import DOWNLOADS_PER_MEASUREMENT, MIN_DURATION_PER_DOWNLOAD

log = logging.getLogger(__name__)

MIN_MEASUREMENT_GAP = DOWNLOADS_PER_MEASUREMENT * MIN_DURATION_PER_DOWNLOAD
MAX_SEQUENTIAL_GAP = 50.0

_TERMINATOR = "====="
_ENTRY_ORDER = attrgetter("end_time", "node_id")
_CANONICAL_TIME = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})T([01][0-9]|2[0-3]):([0-5][0-9]):([0-5][0-9])")
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_TOKEN_TAIL = re.compile(r"\S*")  # to the next whitespace, as str.split cuts
# unix seconds of years 1-9999 UTC, the times an entry can be written with
_TIME_RANGE = range(-62135596800, 253402300800)


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


@lru_cache(maxsize=4096)
def _midnight(day: str):
    """Unix seconds of a YYYY-MM-DD day's midnight UTC, or None when there
    is no such day (month 13, day 00, Feb 29 of a common year, year 0)."""
    try:
        return (date.fromisoformat(day).toordinal() - _EPOCH_ORDINAL) * 86400
    except ValueError:
        return None


def _parse_time(value: str):
    # the canonical form is its day's cached midnight plus its clock;
    # strptime stays the arbiter for every other string (unpadded fields,
    # lowercase "t", non-ASCII digits, minute or second 60), and hour 24
    # goes to it too, so no newer fromisoformat rule leaks in
    canonical = _CANONICAL_TIME.fullmatch(value)
    if canonical:
        day, hour, minute, second = canonical.groups()
        midnight = _midnight(day)
        if midnight is None:
            return None
        return midnight + int(hour) * 3600 + int(minute) * 60 + int(second)
    try:
        ts = int(value)
    except ValueError:
        pass
    else:
        return ts if ts in _TIME_RANGE else None
    try:
        dt = datetime.strptime(value, "%Y-%m-%dT%H:%M:%S")
    except ValueError:
        return None
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def _format_time(ts: int) -> str:
    if ts not in _TIME_RANGE:
        raise ValueError("time %r is outside years 1-9999" % (ts,))
    # the year zero-padded to four digits, as the canonical form reads back
    return "%04d-%02d-%02dT%02d:%02d:%02d" % gmtime(ts)[:6]


def _parse_token(token: str):
    """The memo value of one entry token: its (key, value) pair, with the
    value of node_id, bw and time already checked and parsed (None when it
    fails), or None for a token without "=", which is never memoized."""
    key, sep, value = token.partition("=")
    if not sep:
        return None
    if key == "node_id":
        fingerprint = value[1:].upper()
        value = (fingerprint if value.startswith("$") and is_fingerprint(fingerprint)
                 else None)
    elif key == "bw":
        try:
            value = int(value)
        except ValueError:
            value = None
        else:
            if value < 0:
                value = None
    elif key == "time":
        value = _parse_time(value)
    return key, value


# A parsed entry is built through its slots, skipping __post_init__: its one
# check, is_fingerprint, already ran on the node_id in _parse_token (or, in
# from_records, once per relay id).
_new_entry = object.__new__
_set_node_id, _set_bw, _set_end_time, _set_extras = (
    BandwidthEntry.__dict__[name].__set__
    for name in ("node_id", "bw", "end_time", "extras"))


def _parse_entry(line: str, memo: dict):
    """The entry of one line, or None when the line is malformed. memo maps
    each token seen so far to its _parse_token pair; the pair of an unknown
    key is itself the item kept in extras."""
    node_id = bw = end_time = None
    extras = []
    for token in line.split():
        pair = memo.get(token)
        if pair is None:
            pair = _parse_token(token)
            if pair is None:
                return None
            memo[token] = pair
        key = pair[0]
        if key == "node_id":
            node_id = pair[1]
        elif key == "bw":
            bw = pair[1]
        elif key == "time":
            end_time = pair[1]
        else:
            extras.append(pair)
    if node_id is None or bw is None or end_time is None:
        return None
    entry = _new_entry(BandwidthEntry)
    _set_node_id(entry, node_id)
    _set_bw(entry, bw)
    _set_end_time(entry, end_time)
    _set_extras(entry, tuple(extras))
    return entry


def _names_other_relay(line: str, relay_ids) -> bool:
    """True only when the line's one "node_id=" starts a token whose value,
    "$" dropped and uppercased as _parse_token does, is not in relay_ids: no
    entry of a listed relay can come from such a line. A repeated or
    embedded "node_id=", or one without "$", returns False."""
    # str.find, not a regex search: a look-behind for the token start is
    # tried at every position and took twice as long as the whole check
    at = line.find("node_id=")
    if (at < 0 or line.find("node_id=", at + 8) >= 0
            or (at and not line[at - 1].isspace())
            or not line.startswith("$", at + 8)):
        return False
    return _TOKEN_TAIL.match(line, at + 9).group().upper() not in relay_ids


def parse_bandwidth_file(data, ba_id: str = "unknown", *, memo=None,
                         relay_ids=None) -> BandwidthFile:
    """Parse one bandwidth file from bytes or text.

    The first line must be a unix timestamp. Malformed entry lines are
    skipped and counted in skipped_lines; a file with no valid entry at all
    is rejected. memo, a dict that load_corpus shares across the files of
    one directory, keeps each entry token's parse (see _parse_entry); the
    result does not depend on what it already holds.

    relay_ids, if given, scopes the parse to those relays: the file holds
    only their entries, an entry line that names another relay (see
    _names_other_relay) is not parsed, and skipped_lines and the warnings
    cover only the lines parsed. Until a valid entry is found, such lines
    are still parsed, silently, so a file is rejected in exactly the cases
    an unscoped parse rejects it.
    """
    if memo is None:
        memo = {}
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
    other_valid = False  # a passed-over line holds a valid entry
    if saw_terminator:
        for line in lines[idx:]:
            line = line.strip()
            if not line:
                continue
            if relay_ids is not None and _names_other_relay(line, relay_ids):
                if not (entries or other_valid):
                    other_valid = _parse_entry(line, memo) is not None
                continue
            entry = _parse_entry(line, memo)
            if entry is None:
                skipped += 1
                log.warning("%s: skipping malformed entry line %r", ba_id, line[:60])
            elif relay_ids is None or entry.node_id in relay_ids:
                entries.append(entry)
            else:  # a line that names several relays
                other_valid = True
    if not (entries or other_valid):
        raise ParseError("empty bandwidth file: no valid relay entries")
    entries.sort(key=_ENTRY_ORDER)
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
    for entry in sorted(bwf.entries, key=_ENTRY_ORDER):
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
    fingerprints = set()  # the relay ids already checked
    entries = []
    for rec in records:
        if rec.ba_id != ba_id or not rec.ok:
            continue
        # bw and end_time first, as the BandwidthEntry call evaluated them
        bw = int(round(rec.measured_bw))
        end_time = base_time + int(rec.end_time)
        node_id = rec.relay_id
        if node_id not in fingerprints:
            if not is_fingerprint(node_id):
                raise ParseError("bad node_id %r" % (node_id,))
            fingerprints.add(node_id)
        entry = _new_entry(BandwidthEntry)
        _set_node_id(entry, node_id)
        _set_bw(entry, bw)
        _set_end_time(entry, end_time)
        _set_extras(entry, ())
        entries.append(entry)
    if not entries:
        raise InsufficientDataError("no successful records for scanner %s" % ba_id)
    entries.sort(key=_ENTRY_ORDER)
    return BandwidthFile(
        header_timestamp=base_time, entries=tuple(entries), ba_id=ba_id
    )


# Records of entries are built through their slots too. Of MeasurementRecord's
# checks, the one an entry can fail is repeated in to_records: an entry built
# by hand with bw=math.inf is successful with an infinite bandwidth.
_new_record = object.__new__
(_set_relay_id, _set_ba_id, _set_thread_id, _set_start_time, _set_rec_end_time,
 _set_measured_bw, _set_bytes_total, _set_downloads, _set_ok) = (
    MeasurementRecord.__dict__[name].__set__ for name in MeasurementRecord.__slots__)


def to_records(files) -> list:
    """Invert from_records: one record per entry, in file order, on thread 0
    and without a start time, which files do not keep. An entry with bw=0
    becomes a failed record."""
    records = []
    append = records.append
    for bwf in files:
        ba_id = bwf.ba_id
        for entry in bwf.entries:
            # evaluated in the order of MeasurementRecord's arguments
            node_id = entry.node_id
            end_time = float(entry.end_time)
            bw = entry.bw
            measured_bw = float(bw)
            ok = bw > 0
            if ok and not 0 < measured_bw < math.inf:
                raise ValueError("successful measurement of %s must have a finite "
                                 "measured_bw > 0" % node_id)
            rec = _new_record(MeasurementRecord)
            _set_relay_id(rec, node_id)
            _set_ba_id(rec, ba_id)
            _set_thread_id(rec, 0)
            _set_start_time(rec, None)
            _set_rec_end_time(rec, end_time)
            _set_measured_bw(rec, measured_bw)
            _set_bytes_total(rec, 0)
            _set_downloads(rec, 0)
            _set_ok(rec, ok)
            append(rec)
    return records


# -- forked workers -----------------------------------------------------------

# The least work worth a forked worker. In a 50 MB process on an idle
# 2-vCPU host with Python 3.11, forking a worker, reading one small result
# and reaping it take 2.2 ms (5-7 ms while other guests load the host); a
# full parse takes 23 ns a byte of bandwidth file, packing a worker's files
# and rebuilding them 13 ns more, and a thread-walk step 0.6 us. Each
# minimum is 12-15 ms of the work it splits, so a worker given it saves
# more than it costs. A relay-scoped parse passes over most lines, at 6 ns
# a byte, so a scoped load counts a quarter of its bytes.
MIN_BYTES_PER_WORKER = 512 * 1024  # of bandwidth files, for a directory load
MIN_STEPS_PER_WORKER = 25_000  # thread-walk steps, for estimate_duration
SCOPED_PARSE_SHARE = 4  # full-parse bytes per byte of a relay-scoped load


def _worker_count(work: int, minimum: int) -> int:
    """One worker per CPU this process may run on, as long as each gets at
    least minimum of the work; 1 where forking is unavailable or unsafe:
    without os.fork, off Linux, or with other threads running. Native
    threads that Python does not run, such as a BLAS pool, are not counted:
    they hold no lock that a worker's parse or walk takes."""
    if not hasattr(os, "fork") or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, work // minimum))


def _split(items, parts: int) -> list:
    """items in at most parts contiguous slices, none of them empty unless
    items is, whose lengths differ by at most one."""
    parts = max(1, min(parts, len(items)))
    return [items[len(items) * i // parts:len(items) * (i + 1) // parts]
            for i in range(parts)]


@contextmanager
def _forked(work, parts):
    """Run work(part), an iterable, for each of parts in a child forked on
    entry, and give an iterator over all their items in part order.

    A child packs each item with marshal as work yields it, then sends the
    packed items through a pipe, each behind its length, and leaves by
    os._exit alone. It sends only once done: a pipe holds 64 KiB, and this
    process reads a child only after those before it, so a child sending as
    it went would stall. This process unpacks one item at a time, so it
    never holds more than one packed item. After a child's last item it is
    reaped, and RuntimeError is raised if it failed. Where os.pipe or
    os.fork fails (no descriptor, process or memory to spare), that part
    and those after it run in this process instead, after the children.
    Any child not reaped when the block ends, on whatever path, is sent
    SIGKILL and reaped then.
    """
    children = []  # [pid or None once reaped, read end of its pipe]
    here = []  # the parts run in this process
    try:
        for index, part in enumerate(parts):
            try:
                read_fd, write_fd = os.pipe()
            except OSError:
                here = parts[index:]
                break
            children.append([None, open(read_fd, "rb")])
            try:
                try:
                    children[-1][0] = pid = os.fork()
                except OSError:
                    pid = None
                if pid == 0:
                    status = 1
                    try:
                        for _pid, pipe in children:  # its own and its elders' read ends
                            pipe.close()
                        packed = [marshal.dumps(item) for item in work(part)]
                        with open(write_fd, "wb") as pipe:
                            for data in packed:
                                pipe.write(len(data).to_bytes(8, "little"))
                                pipe.write(data)
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_fd)
            if pid is None:
                children.pop()[1].close()
                here = parts[index:]
                break

        def results():
            for child in children:
                pid, pipe = child
                with pipe:
                    while len(header := pipe.read(8)) == 8:
                        size = int.from_bytes(header, "little")
                        data = pipe.read(size)
                        if len(data) < size:
                            break  # cut short: the child died writing, as its status says
                        yield marshal.loads(data)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                child[0] = None  # only once reaped: an interrupted wait leaves it to SIGKILL
                if status:
                    raise RuntimeError(
                        "forked worker %d failed (status %d); run on one CPU "
                        "(taskset -c 0) to see its error" % (pid, status))
            for part in here:
                yield from work(part)
        yield results()
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:
                from signal import SIGKILL  # here: only an early exit needs it
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


# -- directories ---------------------------------------------------------------


def load_corpus(directory: str, relay_ids=None) -> list:
    """Parse every regular file of a directory in name order, stem as ba_id.

    Unreadable and unparsable files are skipped with a warning. Raises
    ConfigError when the directory cannot be read or holds no parsable file.
    Archives repeat an entry's tokens from file to file, so the files of
    one worker share one parse memo, dropped on return, and each distinct
    token is parsed once per worker. With more than one CPU, a large
    directory is split into runs of files, each parsed in a forked worker
    (see _corpus_files); the files, their order and the warnings are the
    same whatever the number of workers.

    relay_ids, if given, scopes the load to those relays: only the entry
    lines that can name a listed relay are parsed, so a malformed line that
    names another relay is never reported. Which files are skipped, and
    when ConfigError is raised, stay the same. The files returned hold only
    the listed relays' entries: they are meant for to_records, not for
    infer_threads or estimate_duration, which need every entry of a file.
    """
    return list(_corpus_files(directory, relay_ids))


def _load_file(path: str, memo: dict, relay_ids):
    """The parse of one file of a directory, or None, with a warning, when
    it cannot be read or parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return parse_bandwidth_file(data, ba_id=os.path.splitext(os.path.basename(path))[0],
                                    memo=memo, relay_ids=relay_ids)
    except (OSError, ParseError) as exc:
        log.warning("skipping %s: %s", path, str(exc))  # str: a worker marshals it
        return None


def _packed_files(paths, relay_ids):
    """_load_file of each path with one memo, for a forked worker: per
    path, the records it logged, as (level, msg, args) kept rather than
    emitted, and the file packed for _unpacked_file, or None when it was
    skipped. Each record's args go through marshal, so they must be plain
    values (a str, not an exception)."""
    memo = {}
    for path in paths:
        logged = []

        def keep(record):
            logged.append((record.levelno, record.msg, record.args))
            return False  # kept, so neither this process nor its handlers emit it
        log.addFilter(keep)
        try:
            bwf = _load_file(path, memo, relay_ids)
        finally:
            log.removeFilter(keep)
        if bwf is not None:
            entries = bwf.entries
            bwf = (bwf.header_timestamp, bwf.headers, bwf.skipped_lines, bwf.ba_id,
                   [e.node_id for e in entries], [e.bw for e in entries],
                   [e.end_time for e in entries], [e.extras for e in entries])
        yield logged, bwf


def _unpacked_file(packed, shared: dict) -> BandwidthFile:
    """The file that _packed_files packed, its entries built through their
    slots as _parse_entry builds them. marshal gives each file its own
    copies, so shared maps every node id, extras pair and extras tuple
    rebuilt so far in a load to itself: equal ones across files are one
    object, as a parse memo makes them, and a worker's files take about
    as much memory as parsed ones. The ints (bw, end time) are left as
    they come: sharing them too would save a seventh of the memory the
    rebuilt files hold and cost a fifth more time."""
    header_timestamp, headers, skipped_lines, ba_id, node_ids, *columns = packed
    entries = []
    for node_id, bw, end_time, extras in zip(map(shared.setdefault, node_ids, node_ids),
                                             *columns):
        kept = shared.get(extras)
        if kept is None:
            kept = tuple(map(shared.setdefault, extras, extras))
            shared[kept] = kept
        extras = kept
        entry = _new_entry(BandwidthEntry)
        _set_node_id(entry, node_id)
        _set_bw(entry, bw)
        _set_end_time(entry, end_time)
        _set_extras(entry, extras)
        entries.append(entry)
    return BandwidthFile(header_timestamp=header_timestamp, entries=tuple(entries),
                         ba_id=ba_id, headers=headers, skipped_lines=skipped_lines)


def _corpus_files(directory: str, relay_ids):
    """load_corpus one file at a time: each file is yielded as soon as it is
    parsed, and ConfigError is raised after the last name if none parsed.

    The regular files, in name order, are cut into one contiguous run per
    worker (_worker_count on their total size, a quarter of it when the
    load is relay-scoped). Each run but the first is
    parsed in a forked worker (_packed_files); this process parses the
    first, yielding its files as it goes, then takes the other runs' files
    one at a time, in name order, logging each file's warnings and yielding
    it rebuilt. So this process never holds more than one file of a worker,
    packed or rebuilt, at a time; a worker holds its run's files packed
    until it sends them (see _forked).
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ConfigError("cannot read bandwidth file directory: %s" % exc)
    paths = []
    size = 0
    for name in names:
        path = os.path.join(directory, name)
        try:
            st = os.stat(path)
        except OSError:
            continue
        if stat.S_ISREG(st.st_mode):  # os.path.isfile's test
            paths.append(path)
            size += st.st_size
    if relay_ids is not None:
        size //= SCOPED_PARSE_SHARE
    runs = _split(paths, _worker_count(size, MIN_BYTES_PER_WORKER))
    parsed = False
    with _forked(lambda run: _packed_files(run, relay_ids), runs[1:]) as results:
        memo = {}
        shared = {}
        for path in runs[0]:
            bwf = _load_file(path, memo, relay_ids)
            if bwf is not None:
                parsed = True
                yield bwf
        for logged, packed_file in results:
            for level, msg, args in logged:
                log.log(level, msg, *args)
            if packed_file is not None:
                parsed = True
                yield _unpacked_file(packed_file, shared)
    if not parsed:
        raise ConfigError("no parsable bandwidth files in %s" % directory)


def load_records(path: str, relay_ids=None) -> list:
    """Records of a records.jsonl file or of a bandwidth-file directory.

    relay_ids, if given, keeps only the records of those relays. A
    directory is loaded relay-scoped (see load_corpus): only the lines that
    can name a listed relay are parsed, and only those report a malformed
    line. A records.jsonl file is still checked line by line in full, and
    a bad line there stays fatal. A directory's files become records one
    at a time, so in this process its parsed files and its records are
    never all alive together; a forked worker of the load holds its run of
    files packed, about 0.8 of their size on disk, until it sends them.
    """
    if os.path.isfile(path):
        records = read_records_jsonl(path)
        if relay_ids is None:
            return records
        return [rec for rec in records if rec.relay_id in relay_ids]
    if os.path.isdir(path):
        return to_records(_corpus_files(path, relay_ids))
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
    collected as duration samples. Raises ValueError for an entry that ends
    before the one preceding it. The walk itself is _walk_threads, which
    estimate_duration runs on the same end times.
    """
    assignment, num_threads, durations = _walk_threads(_end_times(bwf), rng_seed)
    return ThreadAssignment(
        assignment=tuple(assignment),
        num_threads=num_threads,
        durations=tuple(durations),
    )


def _end_times(bwf: BandwidthFile) -> list:
    """The end times of a file's entries, which must be finite and must not
    decrease: else ValueError names the first that is not finite or that
    ends before the one preceding it."""
    ends = [entry.end_time for entry in bwf.entries]
    if not all(map(le, ends, ends[1:])):  # le is False on NaN: look closer
        for previous_end, end_time in zip(ends, ends[1:]):
            for end in (previous_end, end_time):
                if end != end:
                    raise ValueError("end time %r is not finite" % (end,))
            if end_time < previous_end:
                raise ValueError("entries must be in end-time order: %r ends before %r"
                                 % (end_time, previous_end))
    # in order, so an infinite end time is the first or the last
    for end in ends[:1] + ends[-1:]:
        if not -math.inf < end < math.inf:
            raise ValueError("end time %r is not finite" % (end,))
    return ends


def _walk_threads(end_times, rng_seed):
    """infer_threads on end times in order: (thread per entry, as a list,
    the number of threads, the duration samples, as a list).

    As end times never decrease, a thread that can accept one entry can
    accept every later one, and busy threads free up in the order they
    last ended: they wait in a queue and move to a sorted ready list once
    their gap is long enough. That queue is the assignment itself: a
    thread joins it with each entry it takes, and the busy threads are its
    part from head on.

    The draw is random.Random.choice's own on Python 3.10-3.13: k bits of
    getrandbits for n ready threads, k = n.bit_length(), redrawn while the
    index is >= n. The index is then popped from the ready list.
    """
    getrandbits = random.Random(str(rng_seed)).getrandbits
    last_end = []  # per thread
    assignment = []  # from head on, the busy threads by last end
    head = 0
    ready = []  # threads that can accept, by index
    durations = []
    for i, end_time in enumerate(end_times):
        while head < i and end_time - last_end[assignment[head]] >= MIN_MEASUREMENT_GAP:
            insort(ready, assignment[head])
            head += 1
        if ready:
            n = len(ready)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            thread = ready.pop(r)
            gap = end_time - last_end[thread]
            if gap < MAX_SEQUENTIAL_GAP:
                durations.append(float(gap))
            last_end[thread] = end_time
        else:
            thread = len(last_end)
            last_end.append(end_time)
        assignment.append(thread)
    return assignment, len(last_end), durations


@dataclass(frozen=True)
class DurationEstimate:
    median: float
    thread_count_histogram: dict
    sample_count: int
    iterations: int


def _counted_median(counts: Counter):
    """statistics.median of the samples counts tallies (value -> count)."""
    n = counts.total()
    ranks = ((n - 1) // 2, n // 2)  # the middle sample, or the middle two
    middle = []
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        while len(middle) < 2 and ranks[len(middle)] < seen:
            middle.append(value)
    return middle[1] if n % 2 else (middle[0] + middle[1]) / 2


def estimate_duration(files, iterations: int = 120, rng_seed=0) -> DurationEstimate:
    """Median measurement duration over repeated random thread assignments.

    Each iteration walks every file's threads as infer_threads does, with a
    derived sub-seed; duration samples pool across everything. The
    histogram counts inferred thread numbers per (iteration, file) pair.
    Every file's end times are read and checked once, before any walk, and
    no assignment tuple is built. Samples are tallied per duration value,
    not kept, so memory does not grow with iterations; median and
    sample_count equal statistics.median and len of the pooled samples.

    Each walk has its own seed, so with more than one CPU the iterations
    are cut into one contiguous run per worker (_worker_count on the steps
    walked), each but the first walked in a forked worker, and the tallies
    and histograms are merged in run order: the estimate is the same
    whatever the number of workers.
    """
    if not files:
        raise ValueError("need at least one bandwidth file")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    end_times = [_end_times(bwf) for bwf in files]

    def walk(run):
        counts = Counter()  # duration -> samples
        histogram = {}
        for it in run:
            for fi, ends in enumerate(end_times):
                _assignment, num_threads, durations = _walk_threads(
                    ends, "%s/it%d/file%d" % (rng_seed, it, fi))
                counts.update(durations)
                histogram[num_threads] = histogram.get(num_threads, 0) + 1
        return dict(counts), histogram

    steps = iterations * sum(map(len, end_times))
    runs = _split(range(iterations), _worker_count(steps, MIN_STEPS_PER_WORKER))
    counts = Counter()
    histogram = {}
    with _forked(lambda run: [walk(run)], runs[1:]) as results:
        for run_counts, run_histogram in [walk(runs[0]), *results]:
            counts.update(run_counts)
            for num_threads, n in run_histogram.items():
                histogram[num_threads] = histogram.get(num_threads, 0) + n
    if not counts:
        raise InsufficientDataError("insufficient sequential measurements")
    return DurationEstimate(
        median=float(_counted_median(counts)),
        thread_count_histogram=histogram,
        sample_count=counts.total(),
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
