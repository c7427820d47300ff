"""Command line front end.

Subcommands:
    simulate   run a scenario config or preset, persist records and consensus
    analyze    duration / coincidence analytics over records and bandwidth files
    estimate   closed-form attack resource estimates
    detect     countermeasure scoring and probe planning

Exit codes are a stable contract: 0 success, 2 usage or configuration
problem, 3 simulation failure, 4 insufficient data. A command computes its
outputs and returns them; main() then writes them all, so a command that
fails writes nothing, not even its output directory. Every command that
writes an output directory drops a manifest.json recording the command
line, config digest, seed, and wall-clock bounds: `started` is taken before
the command runs and `finished` after its last file is written, so the two
bound the whole command. With wall times excluded, reruns with identical
inputs produce identical bytes.

Importing this module loads only what every command shares; each command
imports the modules it runs when it runs, so `estimate` alone loads numpy,
only `simulate` loads the simulator, and `estimate` loads no logging.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from itertools import islice
from typing import NamedTuple, Optional

from . import __version__, units
from .core import (
    DEFAULT_ASSUMED_DURATION,
    DEFAULT_THRESHOLD,
    ConfigError,
    InsufficientDataError,
    SimulationError,
    records_to_jsonl,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_DATA = 4

PRESET_NAMES = ("all-honest", "cotormult-n5", "detormult-3x6")

DEFAULT_SWEEP_WINDOWS = (86400.0, 604800.0, 2592000.0, 7776000.0)


def __getattr__(name):
    # cli.build_sim_config is netsim's own function; netsim loads on first
    # use, so `import torbwsim.cli` does not load the simulator
    if name == "build_sim_config":
        from . import netsim
        return netsim.build_sim_config
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# -- config ingestion ---------------------------------------------------------


def _preset_bytes(name: str) -> bytes:
    from importlib import resources  # with pathlib and tempfile: only --preset needs it

    res = resources.files("torbwsim").joinpath("presets", name + ".json")
    try:
        return res.read_bytes()
    except FileNotFoundError:
        raise ConfigError("unknown preset %r" % name)


def _load_config_bytes(args) -> bytes:
    if args.preset:
        return _preset_bytes(args.preset)
    try:
        with open(args.config, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (args.config, exc))


# -- output plumbing ----------------------------------------------------------


def _key_json(key) -> str:
    # json.dumps turns a str, int, float, bool or None key into a string,
    # and raises its TypeError for any other
    return json.dumps({key: 0})[1:-4]


# the value types that json's C encoder writes as json.dumps(indent=2) does
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_CHUNK_ITEMS = 2048


def _json_pieces(o, indent: str, open_ids: set):
    """The text of json.dumps(o, indent=2), in pieces, for o on a line
    indented by indent; open_ids holds the ids of the containers o sits in.

    A container goes out _CHUNK_ITEMS items at a time. A chunk whose values
    are all of _SCALAR_TYPES is one piece, written by json's C encoder with
    this level's line break and indent as its item separator; the items of
    any other chunk go out one by one, a scalar as json.dumps writes it. A
    value json.dumps cannot encode raises its TypeError, and a container
    inside itself its ValueError, once the pieces before it are out."""
    is_dict = isinstance(o, dict)
    if not (is_dict or isinstance(o, (list, tuple))):
        yield json.dumps(o)
        return
    if not o:
        yield "{}" if is_dict else "[]"
        return
    if id(o) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(o))
    inner = indent + "  "
    compact = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode
    items = iter(o.items() if is_dict else o)
    separator = ("{\n" if is_dict else "[\n") + inner
    while chunk := (dict if is_dict else list)(islice(items, _CHUNK_ITEMS)):
        if set(map(type, chunk.values() if is_dict else chunk)) <= _SCALAR_TYPES:
            yield separator + compact(chunk)[1:-1]
            separator = ",\n" + inner
            continue
        for key, value in (chunk.items() if is_dict else enumerate(chunk)):
            yield separator + _key_json(key) + ": " if is_dict else separator
            yield from _json_pieces(value, inner, open_ids)
            separator = ",\n" + inner
    open_ids.discard(id(o))
    yield "\n" + indent + ("}" if is_dict else "]")


def _write_json(doc, write) -> None:
    """Write the bytes of json.dump(doc, fh, indent=2) through write, piece
    by piece (see _json_pieces), so the text is never held whole. Every
    scalar is written by json itself: strings by encode_basestring_ascii,
    ints and floats by int.__repr__ and float.__repr__, and NaN, the
    infinities, true, false and null in json's spellings."""
    for piece in _json_pieces(doc, "", set()):
        write(piece)


def _write_atomic(path: str, data) -> None:
    """Write bytes, text or a JSON document (a dict) to a temp file beside
    path, fsync it and rename it over path; on any failure the temp file is
    removed and path is left as it was. Text is written as UTF-8, its line
    ends untranslated. A document goes out through _write_json, indented
    and with a final newline: the bytes of json.dump with indent=2, never
    held whole as text or bytes."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with (open(tmp, "wb") if isinstance(data, bytes)
              else open(tmp, "w", encoding="utf-8", newline="\n")) as fh:
            if isinstance(data, dict):
                _write_json(data, fh.write)
                fh.write("\n")
            else:
                fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class Outputs(NamedTuple):
    """What a command produced; main() hands it to _emit once it returns.

    files maps a name under --out to bytes, text or a JSON document (a dict,
    written indented). A command without files has no output directory and
    prints its stdout document indented, as its whole result; the others
    print it on one line.
    """

    stdout: dict
    files: Optional[dict] = None
    seed: Optional[int] = None
    config_digest: Optional[str] = None


def _write_output(path: str, data) -> None:
    """Write one file under --out, creating its directory; an OSError
    becomes a ConfigError naming the path."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_atomic(path, data)
    except OSError as exc:
        raise ConfigError("cannot write output %s: %s" % (path, exc.strerror or exc))


def _emit(outputs: Outputs, args, argv, started: datetime) -> None:
    """Write every file, then manifest.json, then the stdout line."""
    if outputs.files is None:
        print(json.dumps(outputs.stdout, indent=2))
        return
    for name, data in outputs.files.items():
        _write_output(os.path.join(args.out, name), data)
    manifest = {
        "command": " ".join(["torbwsim"] + argv),
        "config_digest": outputs.config_digest,
        "seed": outputs.seed,
        "tool_version": __version__,
        "started": started.isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs.files),
    }
    _write_output(os.path.join(args.out, "manifest.json"), manifest)
    print(json.dumps(outputs.stdout))


def _lines(rows) -> str:
    return "".join(row + "\n" for row in rows)


def _log_warnings() -> None:
    """Print warnings to stderr. Only simulate, analyze and detect run
    modules that log, so only they load logging and call this."""
    import logging

    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


# -- simulate -----------------------------------------------------------------


def cmd_simulate(args) -> Outputs:
    import hashlib

    from . import bwfile, netsim

    _log_warnings()
    raw = _load_config_bytes(args)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    cfg = netsim.build_sim_config(doc)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)

    result = netsim.run_simulation(cfg)

    summary = netsim.summarize(cfg, result)
    files = {
        "records.jsonl": records_to_jsonl(result.records),
        "consensus.csv": _lines(["epoch,relay_id,weight"] + [
            "%d,%s,%.6f" % (snap.epoch, relay_id, snap.weights[relay_id])
            for snap in result.consensus for relay_id in sorted(snap.weights)
        ]),
        "summary.json": summary,
    }
    for scanner_cfg in cfg.scanners:
        if any(r.ok and r.ba_id == scanner_cfg.ba_id for r in result.records):
            bwf = bwfile.from_records(result.records, scanner_cfg.ba_id)
            files[os.path.join("bwfiles", scanner_cfg.ba_id + ".bw")] = (
                bwfile.serialize_bandwidth_file(bwf))
    return Outputs(
        {"baseline_bw": summary["baseline_bw"],
         "inflation": summary["inflation"],
         "out": args.out},
        files, seed=cfg.seed, config_digest=hashlib.sha256(raw).hexdigest())


# -- analyze ------------------------------------------------------------------


def cmd_analyze(args) -> Outputs:
    from . import bwfile, coincidence

    _log_warnings()
    if args.subcommand == "durations":
        est = bwfile.estimate_corpus_duration(
            args.input, iterations=args.iterations, rng_seed=args.seed
        )
        return Outputs({"median": est.median}, {"durations.json": {
            "median": est.median,
            "sample_count": est.sample_count,
            "iterations": est.iterations,
            "thread_count_histogram": {
                str(k): v for k, v in sorted(est.thread_count_histogram.items())
            },
        }}, seed=args.seed)

    relay_set = coincidence.load_relay_set(args.relays)
    records = bwfile.load_records(args.input, relay_set)
    timeline = bwfile.build_timeline(records, args.duration)
    if args.subcommand == "coincidence":
        window = None
        if args.window is not None:
            try:
                lo, hi = (float(part) for part in args.window.split(","))
            except ValueError:
                lo = hi = math.nan
            if not lo <= hi:
                raise ConfigError(
                    "--window must be START,END in unix seconds, START <= END")
            window = (lo, hi)
        dist = coincidence.count_events(timeline, relay_set, window=window)
        return Outputs({
            "total_measurements": dist.total_measurements,
            "expected_inflation": coincidence.expected_inflation(dist),
        }, {"distribution.csv": _lines(["k,count,probability"] + [
            "%d,%d,%.9f" % row for row in coincidence.distribution_rows(dist)
        ])})

    # window-sweep
    windows = [w for chunk in args.window or [] for w in chunk] or DEFAULT_SWEEP_WINDOWS
    sweep = coincidence.coincidence_vs_window(timeline, relay_set, windows)
    rows = ["%s,%.9f" % ("%d" % w if w.is_integer() else repr(w), p2)
            for w, p2 in sweep.items()]  # a repeated length once, first place
    return Outputs({"windows_reported": len(sweep)},
                   {"window_sweep.csv": _lines(["window_seconds,p2"] + rows)})


# -- estimate -----------------------------------------------------------------


def cmd_estimate(args) -> Outputs:
    from . import estimator

    if args.subcommand == "inflation":
        return Outputs({"x": args.x, "inflation": estimator.inflation_curve(args.x)})
    if args.subcommand == "refit":
        fit = estimator.refit_curve(estimator.load_samples(args.samples))
        return Outputs({
            "coefficients": fit.model.coefficients(),
            "mse": fit.mse,
            "evaluations": fit.evaluations,
        })
    if args.subcommand == "servers":
        query = estimator.ResourceQuery(x=args.x, b=args.b, p=args.p, d=args.d)
        servers = estimator.servers_required(query)
        result = {"x": args.x, "servers": servers, "total_relays": servers * args.x}
    else:  # optimize
        result = dict(estimator.optimize_cluster(b=args.b, p=args.p, d=args.d))
    result.update(b_bytes_per_second=args.b, p_percent=args.p,
                  d_bytes_per_second=args.d)
    return Outputs(result)


# -- detect -------------------------------------------------------------------


def cmd_detect(args) -> Outputs:
    from . import bwfile, defense

    _log_warnings()
    records = bwfile.load_records(args.input)
    report = defense.score_suspects(
        records, assumed_duration=args.duration, threshold=args.threshold
    )
    plans = defense.plan_probes(report, args.probe_budget)
    return Outputs({
        "suspected_groups": [list(g) for g in report.groups],
        "probes_planned": len(plans),
    }, {
        "suspicion.json": defense.report_to_dict(report),
        "probes.csv": _lines(",".join(row) for row in defense.probe_rows(plans)),
    })


# -- parser -------------------------------------------------------------------


def _duration(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite seconds > 0, got %r" % text)
    return value


def _durations(text: str) -> list:
    return [_duration(part) for part in text.split(",")]


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError("must be a number in [0, 1], got %r" % text)
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, got %r" % text)
    return value


def _rate(text: str) -> float:
    # argparse shows an ArgumentTypeError's text, but replaces a ValueError's
    try:
        return units.parse_rate(text)
    except units.UnitError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_duration(parser) -> None:
    parser.add_argument("--duration", type=_duration,
                        default=DEFAULT_ASSUMED_DURATION,
                        help="assumed duration for records without start times")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use, not at import.

    parse_args keeps no state between calls, so repeated main() calls in
    one process (tests, the benchmark body) share it. Flags that several
    subcommands share live in parent parsers, each declared once.
    """
    parser = argparse.ArgumentParser(
        prog="torbwsim",
        description="Bandwidth-scanner inflation attack simulation and forensics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and persist results")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON scenario config")
    src.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    sim.add_argument("--seed", type=int, default=None, help="override config seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="bandwidth-file corpus analytics")
    ana.set_defaults(func=cmd_analyze)
    anasub = ana.add_subparsers(dest="subcommand", required=True)
    p = anasub.add_parser("durations")
    p.add_argument("input", help="directory of bandwidth files")
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", type=_positive_int, default=120)
    p.add_argument("--seed", type=int, default=0)
    timeline = argparse.ArgumentParser(add_help=False)
    timeline.add_argument("input", help="records.jsonl or a bandwidth-file directory")
    timeline.add_argument("--out", required=True)
    _add_duration(timeline)
    timeline.add_argument("--relays", required=True,
                          help="file listing relay fingerprints, one per line")
    anasub.add_parser("coincidence", parents=[timeline]).add_argument(
        "--window", default=None, help="START,END unix-second bounds on end times")
    anasub.add_parser("window-sweep", parents=[timeline]).add_argument(
        "--window", type=_durations, action="append", default=None,
        help="window length in seconds, repeatable")

    est = sub.add_parser("estimate", help="closed-form resource estimates")
    est.set_defaults(func=cmd_estimate)
    estsub = est.add_subparsers(dest="subcommand", required=True)
    cluster_size = argparse.ArgumentParser(add_help=False)
    cluster_size.add_argument("--x", type=int, required=True, help="relays per server")
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--b", type=_rate, required=True,
                         help="network traffic volume, unit suffix required (e.g. 678Gbit)")
    network.add_argument("--p", type=float, required=True,
                         help="target traffic share, percent")
    network.add_argument("--d", type=_rate, required=True,
                         help="per-server bandwidth, unit suffix required (e.g. 100MB)")
    estsub.add_parser("inflation", parents=[cluster_size])
    estsub.add_parser("servers", parents=[cluster_size, network])
    estsub.add_parser("optimize", parents=[network])
    estsub.add_parser("refit").add_argument(
        "--samples", required=True, help="CSV of x,y fit samples")

    det = sub.add_parser("detect", help="score co-measurement suspects")
    det.add_argument("input", help="records.jsonl or a bandwidth-file directory")
    det.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD,
                     help="pair drop at which relays are grouped, in [0, 1]")
    det.add_argument("--probe-budget", type=_positive_int, default=10)
    _add_duration(det)
    det.add_argument("--out", required=True)
    det.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    started = datetime.now(timezone.utc)
    try:
        _emit(args.func(args), args, list(argv), started)
    except InsufficientDataError as exc:
        print("error: insufficient data: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except SimulationError as exc:
        print("error: simulation failed: %s" % exc, file=sys.stderr)
        return EXIT_SIMULATION
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
