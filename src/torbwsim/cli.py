"""Command line front end.

Subcommands:
    simulate   run a scenario config or preset, persist records and consensus
    analyze    duration / coincidence analytics over records and bandwidth files
    estimate   closed-form attack resource estimates
    detect     countermeasure scoring and probe planning

Exit codes are a stable contract: 0 success, 2 usage or configuration
problem, 3 simulation failure, 4 insufficient data. Every command that
writes an output directory drops a manifest.json recording the command
line, config digest, seed, and wall-clock bounds; with wall times excluded,
reruns with identical inputs produce identical bytes.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import sys
from datetime import datetime, timezone
from importlib import resources

from . import __version__, bwfile, coincidence, defense, estimator, netsim, units
from .core import (
    ConfigError,
    InsufficientDataError,
    SimulationError,
    records_to_jsonl,
)
from .netsim import build_sim_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_DATA = 4

PRESET_NAMES = ("all-honest", "cotormult-n5", "detormult-3x6")

DEFAULT_SWEEP_WINDOWS = (86400.0, 604800.0, 2592000.0, 7776000.0)


# -- config ingestion ---------------------------------------------------------


def _preset_bytes(name: str) -> bytes:
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


def _write_atomic(path: str, data) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()


class _OutputDir:
    """Collects output files and finishes with a manifest."""

    def __init__(self, out: str, argv, config_digest=None, seed=None):
        self.out = out
        self.argv = list(argv)
        self.config_digest = config_digest
        self.seed = seed
        self.names = []
        self.started = datetime.now(timezone.utc).timestamp()
        os.makedirs(out, exist_ok=True)

    def write(self, name: str, data) -> str:
        path = os.path.join(self.out, name)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        _write_atomic(path, data)
        self.names.append(name)
        return path

    def finish(self) -> None:
        manifest = {
            "command": " ".join(["torbwsim"] + self.argv),
            "config_digest": self.config_digest,
            "seed": self.seed,
            "tool_version": __version__,
            "started": _iso(self.started),
            "finished": _iso(datetime.now(timezone.utc).timestamp()),
            "outputs": sorted(self.names),
        }
        _write_atomic(
            os.path.join(self.out, "manifest.json"),
            json.dumps(manifest, indent=2) + "\n",
        )


# -- simulate -----------------------------------------------------------------


def cmd_simulate(args) -> int:
    raw = _load_config_bytes(args)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    cfg = build_sim_config(doc)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    digest = hashlib.sha256(raw).hexdigest()

    result = netsim.run_simulation(cfg)

    out = _OutputDir(args.out, args.argv, config_digest=digest, seed=cfg.seed)
    out.write("records.jsonl", records_to_jsonl(result.records))

    consensus_rows = ["epoch,relay_id,weight"]
    for snap in result.consensus:
        for relay_id in sorted(snap.weights):
            consensus_rows.append(
                "%d,%s,%.6f" % (snap.epoch, relay_id, snap.weights[relay_id])
            )
    out.write("consensus.csv", "\n".join(consensus_rows) + "\n")

    summary = netsim.summarize(cfg, result)
    out.write("summary.json", json.dumps(summary, indent=2) + "\n")

    for scanner_cfg in cfg.scanners:
        if any(r.ok and r.ba_id == scanner_cfg.ba_id for r in result.records):
            bwf = bwfile.from_records(result.records, scanner_cfg.ba_id)
            out.write(
                os.path.join("bwfiles", scanner_cfg.ba_id + ".bw"),
                bwfile.serialize_bandwidth_file(bwf),
            )
    out.finish()
    print(json.dumps({
        "baseline_bw": summary["baseline_bw"],
        "inflation": summary["inflation"],
        "out": args.out,
    }))
    return EXIT_OK


# -- analyze ------------------------------------------------------------------


def cmd_analyze(args) -> int:
    if args.subcommand == "durations":
        files = bwfile.load_corpus(args.input)
        est = bwfile.estimate_duration(
            files, iterations=args.iterations, rng_seed=args.seed
        )
        out = _OutputDir(args.out, args.argv, seed=args.seed)
        out.write("durations.json", json.dumps({
            "median": est.median,
            "sample_count": est.sample_count,
            "iterations": est.iterations,
            "thread_count_histogram": {
                str(k): v for k, v in sorted(est.thread_count_histogram.items())
            },
        }, indent=2) + "\n")
        print(json.dumps({"median": est.median}))
        out.finish()
        return EXIT_OK

    relay_set = coincidence.load_relay_set(args.relays)
    records = bwfile.load_records(args.input, relay_set)
    timeline = bwfile.build_timeline(records, args.duration)
    if args.subcommand == "coincidence":
        window = None
        if args.window:
            try:
                lo, hi = (float(part) for part in args.window.split(","))
            except ValueError:
                lo = hi = math.nan
            if not lo <= hi:
                raise ConfigError(
                    "--window must be START,END in unix seconds, START <= END")
            window = (lo, hi)
        dist = coincidence.count_events(timeline, relay_set, window=window)
        rows = ["k,count,probability"]
        for k, count, prob in coincidence.distribution_rows(dist):
            rows.append("%d,%d,%.9f" % (k, count, prob))
        out = _OutputDir(args.out, args.argv)
        out.write("distribution.csv", "\n".join(rows) + "\n")
        print(json.dumps({
            "total_measurements": dist.total_measurements,
            "expected_inflation": coincidence.expected_inflation(dist),
        }))
    else:  # window-sweep
        windows = [w for chunk in args.window or [] for w in chunk] or DEFAULT_SWEEP_WINDOWS
        sweep = coincidence.coincidence_vs_window(timeline, relay_set, windows)
        rows = ["window_seconds,p2"]
        for w, p2 in sweep.items():  # a repeated length once, first place
            label = "%d" % w if w.is_integer() else repr(w)
            rows.append("%s,%.9f" % (label, p2))
        out = _OutputDir(args.out, args.argv)
        out.write("window_sweep.csv", "\n".join(rows) + "\n")
        print(json.dumps({"windows_reported": len(sweep)}))

    out.finish()
    return EXIT_OK


# -- estimate -----------------------------------------------------------------


def cmd_estimate(args) -> int:
    if args.subcommand == "inflation":
        value = estimator.inflation_curve(args.x)
        result = {"x": args.x, "inflation": value}
    elif args.subcommand == "servers":
        query = estimator.ResourceQuery(x=args.x, b=args.b, p=args.p, d=args.d)
        servers = estimator.servers_required(query)
        result = {
            "x": args.x,
            "servers": servers,
            "total_relays": servers * args.x,
            "b_bytes_per_second": args.b,
            "p_percent": args.p,
            "d_bytes_per_second": args.d,
        }
    elif args.subcommand == "optimize":
        best = estimator.optimize_cluster(b=args.b, p=args.p, d=args.d)
        result = dict(best)
        result.update({
            "b_bytes_per_second": args.b,
            "p_percent": args.p,
            "d_bytes_per_second": args.d,
        })
    else:  # refit
        fit = estimator.refit_curve(estimator.load_samples(args.samples))
        result = {
            "coefficients": fit.model.coefficients(),
            "mse": fit.mse,
            "evaluations": fit.evaluations,
        }
    print(json.dumps(result, indent=2))
    return EXIT_OK


# -- detect -------------------------------------------------------------------


def cmd_detect(args) -> int:
    records = bwfile.load_records(args.input)
    report = defense.score_suspects(
        records, assumed_duration=args.duration, threshold=args.threshold
    )
    plans = defense.plan_probes(report, args.probe_budget)

    out = _OutputDir(args.out, args.argv)
    out.write(
        "suspicion.json",
        json.dumps(defense.report_to_dict(report), indent=2) + "\n",
    )
    out.write(
        "probes.csv",
        "\n".join(",".join(row) for row in defense.probe_rows(plans)) + "\n",
    )
    out.finish()
    print(json.dumps({
        "suspected_groups": [list(g) for g in report.groups],
        "probes_planned": len(plans),
    }))
    return EXIT_OK


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
    return [_duration(part) for part in text.split(",") if part]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, got %r" % text)
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use, not at import.

    parse_args keeps no state between calls, so repeated main() calls in
    one process (tests, the benchmark body) share it.
    """
    parser = argparse.ArgumentParser(
        prog="torbwsim",
        description="Bandwidth-scanner inflation attack simulation and forensics.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and persist results")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON scenario config")
    src.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    sim.add_argument("--seed", type=int, default=None, help="override config seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="bandwidth-file corpus analytics")
    anasub = ana.add_subparsers(dest="subcommand", required=True)
    for name in ("durations", "coincidence", "window-sweep"):
        p = anasub.add_parser(name)
        p.add_argument("input", help="directory of bandwidth files" if name == "durations"
                       else "records.jsonl or a bandwidth-file directory")
        p.add_argument("--out", required=True)
        if name == "durations":
            p.add_argument("--iterations", type=_positive_int, default=120)
            p.add_argument("--seed", type=int, default=0)
        else:
            p.add_argument("--duration", type=_duration,
                           default=bwfile.DEFAULT_ASSUMED_DURATION,
                           help="assumed duration for records without start times")
            p.add_argument("--relays", required=True,
                           help="file listing relay fingerprints, one per line")
        if name == "coincidence":
            p.add_argument("--window", default=None,
                           help="START,END unix-second bounds on end times")
        if name == "window-sweep":
            p.add_argument("--window", type=_durations, action="append",
                           default=None,
                           help="window length in seconds, repeatable")
        p.set_defaults(func=cmd_analyze)

    est = sub.add_parser("estimate", help="closed-form resource estimates")
    estsub = est.add_subparsers(dest="subcommand", required=True)
    p = estsub.add_parser("inflation")
    p.add_argument("--x", type=int, required=True, help="relays per server")
    p.set_defaults(func=cmd_estimate)
    p = estsub.add_parser("servers")
    p.add_argument("--x", type=int, required=True, help="relays per server")
    p.add_argument("--b", type=units.parse_rate, required=True,
                   help="network traffic volume, unit suffix required (e.g. 678Gbit)")
    p.add_argument("--p", type=float, required=True, help="target traffic share, percent")
    p.add_argument("--d", type=units.parse_rate, required=True,
                   help="per-server bandwidth, unit suffix required (e.g. 100MB)")
    p.set_defaults(func=cmd_estimate)
    p = estsub.add_parser("optimize")
    p.add_argument("--b", type=units.parse_rate, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--d", type=units.parse_rate, required=True)
    p.set_defaults(func=cmd_estimate)
    p = estsub.add_parser("refit")
    p.add_argument("--samples", required=True, help="CSV of x,y fit samples")
    p.set_defaults(func=cmd_estimate)

    det = sub.add_parser("detect", help="score co-measurement suspects")
    det.add_argument("input", help="records.jsonl or a bandwidth-file directory")
    det.add_argument("--threshold", type=float, default=defense.DEFAULT_THRESHOLD)
    det.add_argument("--probe-budget", type=_positive_int, default=10)
    det.add_argument("--duration", type=_duration,
                     default=bwfile.DEFAULT_ASSUMED_DURATION,
                     help="assumed duration for records without start times")
    det.add_argument("--out", required=True)
    det.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    args.argv = list(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except InsufficientDataError as exc:
        print("error: insufficient data: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except SimulationError as exc:
        print("error: simulation failed: %s" % exc, file=sys.stderr)
        return EXIT_SIMULATION
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
