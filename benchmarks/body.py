"""Timed body of one benchmark run, executed in its own interpreter.

    python3 benchmarks/body.py WORKLOAD WORKDIR SECONDS TRACE RESULT_JSON

Runs inside WORKDIR, which holds the generated inputs and truth.json, and
repeats the workload's operation sequence until SECONDS have passed (at
least MIN_REPS times). The calibration kernels (calib.py) run on a timer
while each repetition runs. With TRACE=1 untraced and traced repetitions
alternate, so tracing overhead and traced-equals-untraced outputs come from
the same process. Before the first repetition and after each one, while
the body waits, SETUP_PER_REP fresh interpreters time set-up, so its
samples spread over the run as the repetitions do. Everything runs on one
thread. Output checks run once per
distinct outputs digest, outside the timed span and with tracing removed.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import replace
from importlib import resources

import calib
from tracing import Tracer, quantile_summary, span_totals, write_spans

from torbwsim import bwfile, cli, coincidence, defense, estimator, netsim, units

MIN_REPS = 2
PRESETS = {"all-honest": 1.0, "cotormult-n5": 5.0, "detormult-3x6": 7.92}
MIN_THREAD_GAP = 25.0
ASSUMED_DURATION = 39.0  # the CLI's default --duration for analyze and detect
NETWORK = "678 Gbit"
SERVER = "100 MB"
SETUP_PER_REP = 2

# Fresh-interpreter set-up probe: import the CLI (and with it numpy through
# the estimator), then build the scenario config when there is one. Input
# generation happens before and is not part of set-up.
SETUP_PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
import torbwsim.estimator
t1 = time.perf_counter()
import torbwsim.cli
t2 = time.perf_counter()
if sys.argv[2] != "-":
    with open(sys.argv[2], "r", encoding="utf-8") as fh:
        torbwsim.cli.build_sim_config(json.load(fh))
t3 = time.perf_counter()
if not torbwsim.__file__.startswith(sys.argv[1]):
    sys.exit("imported %s, not the checkout's copy" % torbwsim.__file__)
print(json.dumps({"estimator_import_s": t1 - t0, "cli_import_s": t2 - t0,
                  "setup_s": t3 - t0, "numpy": sys.modules["numpy"].__version__}))
"""


class Rep:
    """One repetition: per-phase host seconds, operations and their outputs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.phases = defaultdict(float)
        self.ops = []          # op labels, in order
        self.failed = {}       # op label -> reason
        self.digests = {}      # op label -> digest of its outputs
        self.results = {}      # op label -> parsed stdout or return value

    def _op(self, label, phase, fn):
        if self.tracer is not None:
            self.tracer.op += 1
        self.ops.append(label)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            self.phases[phase] += time.perf_counter() - start
            traceback.print_exc()
            self.failed[label] = "raised"
            return None
        self.phases[phase] += time.perf_counter() - start
        return result

    def cli(self, label, phase, argv, out=None):
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        code = self._op(label, phase, call)
        if code is None:
            return None
        if code != 0:
            self.failed[label] = "exit code %s" % code
            return None
        text = buf.getvalue()
        self.digests[label] = _digest(text.encode(), out)
        self.results[label] = json.loads(text)
        return self.results[label]

    def call(self, label, phase, fn, *args, **kwargs):
        result = self._op(label, phase, lambda: fn(*args, **kwargs))
        if label not in self.failed:
            self.digests[label] = hashlib.sha256(repr(result).encode()).hexdigest()
            self.results[label] = result
        return result

    def fail(self, label, reason):
        self.failed.setdefault(label, reason)

    def digest(self):
        blob = json.dumps(sorted(self.digests.items())).encode()
        return hashlib.sha256(blob).hexdigest()


def _digest(stdout, out_dir):
    """sha256 over stdout and every output file; manifest wall clock dropped."""
    h = hashlib.sha256(stdout)
    if out_dir is None:
        return h.hexdigest()
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                doc = json.loads(data)
                doc.pop("started", None)
                doc.pop("finished", None)
                data = json.dumps(doc, sort_keys=True).encode()
            h.update(os.path.relpath(path, out_dir).encode() + b"\0" + data)
    return h.hexdigest()


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- workloads ----------------------------------------------------------------
#
# Each workload has body(rep, truth), the timed operation sequence, and
# check(rep, truth) -> stats, which reads the outputs, calls rep.fail() for
# every failed output check and returns the simulated statistics.


def _serving_capacity(topology, detector):
    """Usable capacity of the host that can serve each relay's measurement."""
    dedicated = topology.clusters.dedicated_server
    certain = detector.mode == "ip_filter" and detector.false_negative_rate == 0
    bound = {}
    for relay in topology.relays.values():
        own = topology.hosts[relay.host_id].usable_capacity
        if relay.policy == "detormult_member":
            # a detected probe is rerouted to the dedicated server
            other = topology.hosts[dedicated].usable_capacity
            own = other if certain else max(own, other)
        bound[relay.relay_id] = own
    return bound


def _check_simulation(rep, label, doc, out):
    """Capacity bound on every ok record; returns (summary, records)."""
    cfg = cli.build_sim_config(doc)
    bound = _serving_capacity(cfg.topology, cfg.detector)
    records = _read_records(os.path.join(out, "records.jsonl"))
    over = [r for r in records if r["ok"] and r["bw"] > bound[r["relay_id"]] + 1e-6]
    if over:
        rep.fail(label, "%d records above host usable capacity" % len(over))
    return _read_json(os.path.join(out, "summary.json")), records


def _sim_stats(summary, records):
    return {"inflation": summary["inflation"], "records": len(records),
            "ok_fraction": sum(r["ok"] for r in records) / max(1, len(records))}


class SimFarm:
    def body(self, rep, truth):
        rep.cli("simulate", "simulate",
                ["simulate", "--config", truth["scenario"], "--out", "out/sim"],
                out="out/sim")

    def check(self, rep, truth):
        if "simulate" in rep.failed:
            return {}
        summary, records = _check_simulation(
            rep, "simulate", _read_json(truth["scenario"]), "out/sim")
        if abs(summary["inflation"] - 1.0) > 0.01:
            rep.fail("simulate", "honest inflation %r is not ~1" % summary["inflation"])
        return {"simulate": _sim_stats(summary, records)}


class AttackDefense:
    def body(self, rep, truth):
        for preset in PRESETS:
            out = "out/" + preset
            rep.cli("simulate:" + preset, "simulate",
                    ["simulate", "--preset", preset, "--out", out], out=out)
        rep.cli("simulate:scenario", "simulate",
                ["simulate", "--config", truth["scenario"], "--out", "out/scenario"],
                out="out/scenario")
        rep.cli("detect", "detect",
                ["detect", "out/scenario/records.jsonl", "--out", "out/detect"],
                out="out/detect")
        if "detect" not in rep.results:
            return
        start = time.perf_counter()
        with open(truth["scenario"], "r", encoding="utf-8") as fh:
            cfg = cli.build_sim_config(json.load(fh))
        # The verdict check needs an adversary that sees every probe, as in
        # acceptance criterion 08: a missed probe is measured like honest
        # traffic, so its verdict says nothing about the cluster. run_probe
        # draws misses from the scenario seed, not from its seed argument,
        # so with the scenario's miss rate one early miss hits every probe.
        cfg = replace(cfg, detector=replace(cfg.detector, false_negative_rate=0.0))
        with open("out/detect/probes.csv", "r", encoding="utf-8") as fh:
            pairs = [(row["relay_a"], row["relay_b"]) for row in csv.DictReader(fh)]
        rep.phases["confirm"] += time.perf_counter() - start
        solo = {}
        for a, b in pairs:
            for relay in (a, b):
                if relay not in solo:
                    recs = rep.call("probe:" + relay, "confirm", netsim.run_probe,
                                    cfg, [relay], seed="solo/" + relay)
                    if recs:
                        solo[relay] = recs[0].measured_bw
            pair = "%s,%s" % (a, b)
            recs = rep.call("probe:" + pair, "confirm", netsim.run_probe,
                            cfg, [a, b], seed="co/" + pair)
            if recs:
                rep.call("verify:" + pair, "confirm",
                         defense.verify_shared_resource, recs[0], recs[1], solo)

    def check(self, rep, truth):
        stats = {}
        for preset, expected in PRESETS.items():
            label = "simulate:" + preset
            if label in rep.failed:
                continue
            doc = json.loads(
                resources.files("torbwsim").joinpath("presets", preset + ".json")
                .read_text())
            summary, records = _check_simulation(rep, label, doc, "out/" + preset)
            if not math.isclose(summary["inflation"], expected, rel_tol=1e-6):
                rep.fail(label, "inflation %r, expected %r"
                         % (summary["inflation"], expected))
            stats[label] = _sim_stats(summary, records)
        if "simulate:scenario" not in rep.failed:
            summary, records = _check_simulation(
                rep, "simulate:scenario", _read_json(truth["scenario"]),
                "out/scenario")
            stats["simulate:scenario"] = dict(
                _sim_stats(summary, records),
                cluster_inflation={k: g["inflation"]
                                   for k, g in summary["groups"].items()})
        if "detect" in rep.results:
            planted = {r for members in truth["clusters"].values() for r in members}
            stats["detect"] = _group_stats(rep.results["detect"], planted,
                                           "out/detect")
        cluster_of = {r: c for c, members in truth["clusters"].items()
                      for r in members}
        verdicts = correct = 0
        for label in rep.ops:
            if not label.startswith("verify:") or label in rep.failed:
                continue
            a, b = label[len("verify:"):].split(",")
            same = a in cluster_of and cluster_of.get(a) == cluster_of.get(b)
            verdict = rep.results[label].verdict
            verdicts += 1
            if (verdict == "shared") == same:
                correct += 1
            else:
                rep.fail(label, "verdict %s for %s pair"
                         % (verdict, "same-cluster" if same else "cross"))
        stats["confirm"] = {"verdicts": verdicts, "verdicts_correct": correct}
        return stats


def _group_stats(stdout, planted, out):
    groups = stdout["suspected_groups"]
    grouped = {r for g in groups for r in g}
    report = _read_json(os.path.join(out, "suspicion.json"))
    return {"groups": len(groups), "largest_group": max(map(len, groups), default=0),
            "planted_recall": len(planted & grouped) / len(planted),
            "pair_drops": len(report["pair_drops"]),
            "probes_planned": stdout["probes_planned"]}


SWEEP_WINDOWS = ("3600", "14400", "28800")


class ForensicsArchive:
    def body(self, rep, truth):
        bwdir, relays = truth["bwdir"], truth["relays"]
        rep.cli("analyze:durations", "analyze",
                ["analyze", "durations", bwdir, "--iterations", "10", "--seed", "7",
                 "--out", "out/durations"], out="out/durations")
        rep.cli("analyze:coincidence", "analyze",
                ["analyze", "coincidence", bwdir, "--relays", relays,
                 "--out", "out/coincidence"], out="out/coincidence")
        argv = ["analyze", "window-sweep", bwdir, "--relays", relays,
                "--out", "out/sweep"]
        for window in SWEEP_WINDOWS:
            argv += ["--window", window]
        rep.cli("analyze:window-sweep", "analyze", argv, out="out/sweep")
        rep.cli("detect", "detect", ["detect", bwdir, "--out", "out/detect"],
                out="out/detect")

    def check(self, rep, truth):
        stats = {}
        label = "analyze:durations"  # parses every file, so owns the parse checks
        entries = skipped = 0
        for name in sorted(os.listdir(truth["bwdir"])):
            with open(os.path.join(truth["bwdir"], name), "rb") as fh:
                raw = fh.read()
            stem = os.path.splitext(name)[0]
            bwf = bwfile.parse_bandwidth_file(raw, ba_id=stem)
            expect = truth["files"][stem]
            if (len(bwf.entries), bwf.skipped_lines) != (expect["entries"],
                                                        expect["malformed"]):
                rep.fail(label, "%s: parsed %d entries/%d skipped, wrote %d/%d"
                         % (name, len(bwf.entries), bwf.skipped_lines,
                            expect["entries"], expect["malformed"]))
            once = bwfile.serialize_bandwidth_file(bwf)
            twice = bwfile.serialize_bandwidth_file(
                bwfile.parse_bandwidth_file(once, ba_id=stem))
            if once != twice:
                rep.fail(label, "%s: serialize(parse()) is not a fixed point" % name)
            for seed in range(3):
                ta = bwfile.infer_threads(bwf, rng_seed="check/%d" % seed)
                last = {}
                for entry, thread in zip(bwf.entries, ta.assignment):
                    if thread in last and entry.end_time - last[thread] < MIN_THREAD_GAP:
                        rep.fail(label, "%s: infer_threads spacing below %gs"
                                 % (name, MIN_THREAD_GAP))
                    last[thread] = entry.end_time
            entries += len(bwf.entries)
            skipped += bwf.skipped_lines
        stats["parse"] = {"entries": entries, "skipped_lines": skipped}
        if label in rep.results:
            stats["durations"] = {"median": rep.results[label]["median"]}

        label = "analyze:coincidence"
        if label in rep.results:
            expected = _brute_force_events(truth)
            with open("out/coincidence/distribution.csv", "r", encoding="utf-8") as fh:
                got = {int(row["k"]): int(row["count"]) // int(row["k"])
                       for row in csv.DictReader(fh)}
            if got != expected:
                rep.fail(label, "event counts %r, brute force %r" % (got, expected))
            stats["coincidence"] = rep.results[label]
        label = "analyze:window-sweep"
        if label in rep.results and (
                rep.results[label]["windows_reported"] != len(SWEEP_WINDOWS)):
            rep.fail(label, "windows reported %r" % rep.results[label])
        if "detect" in rep.results:
            stats["detect"] = _group_stats(rep.results["detect"], set(truth["pot"]),
                                           "out/detect")
        return stats


def _brute_force_events(truth):
    """Event sizes of the planted set from the written entries, by pairwise
    overlap and union-find over [end - ASSUMED_DURATION, end] intervals."""
    ivs = [(end - ASSUMED_DURATION, float(end)) for f in truth["files"].values()
           for end in f["pot_ends"]]
    parent = list(range(len(ivs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (s1, e1) in enumerate(ivs):
        for j in range(i + 1, len(ivs)):
            s2, e2 = ivs[j]
            if s1 <= e2 and s2 <= e1:
                parent[find(i)] = find(j)
    sizes = defaultdict(int)
    for i in range(len(ivs)):
        sizes[find(i)] += 1
    counts = defaultdict(int)
    for size in sizes.values():
        counts[size] += 1
    return dict(counts)


class EstimateFit:
    def body(self, rep, truth):
        rep.cli("refit", "estimate", ["estimate", "refit", "--samples", truth["samples"]])
        for p in truth["percents"]:
            rep.cli("optimize:%s" % p, "estimate",
                    ["estimate", "optimize", "--b", NETWORK, "--p", str(p),
                     "--d", SERVER])
        queries = [(109, 50)] + list(zip(truth["xs"], truth["percents"]))
        for x, p in queries:
            rep.cli("servers:%s:%s" % (x, p), "estimate",
                    ["estimate", "servers", "--x", str(x), "--b", NETWORK,
                     "--p", str(p), "--d", SERVER])

    def check(self, rep, truth):
        b, d = units.parse_rate(NETWORK), units.parse_rate(SERVER)

        def servers(x, p):
            return math.ceil(2.0 * b * (p / 100.0) / (d * estimator.inflation_curve(x)))

        stats = {}
        fit = rep.results.get("refit")
        if fit is not None:
            with open(truth["samples"], "r", encoding="utf-8") as fh:
                samples = [(float(r["x"]), float(r["y"])) for r in csv.DictReader(fh)]

            def mse(model):
                return math.fsum((model.evaluate(x) - y) ** 2
                                 for x, y in samples) / len(samples)

            shipped = mse(estimator.DEFAULT_MODEL)
            refit = mse(estimator.InflationModel(*fit["coefficients"]))
            if not fit["mse"] <= shipped or not math.isclose(fit["mse"], refit,
                                                             rel_tol=1e-9):
                rep.fail("refit", "refit mse %r (recomputed %r), shipped %r"
                         % (fit["mse"], refit, shipped))
            stats["refit"] = {"mse": fit["mse"], "shipped_mse": shipped,
                              "evaluations": fit["evaluations"]}
        for label in rep.ops:
            got = rep.results.get(label)
            if got is None:
                continue
            if label.startswith("optimize:"):
                p = float(label.split(":")[1])
                best = min(range(1, 121), key=lambda x: (x + servers(x, p), x))
                want = (best, servers(best, p))
                if (got["x"], got["servers"]) != want:
                    rep.fail(label, "optimum %r, brute force %r"
                             % ((got["x"], got["servers"]), want))
            elif label.startswith("servers:"):
                x, p = int(label.split(":")[1]), float(label.split(":")[2])
                want = 10 if (x, p) == (109, 50) else servers(x, p)
                if got["servers"] != want or got["total_relays"] != want * x:
                    rep.fail(label, "servers %r, expected %r" % (got["servers"], want))
        return stats


WORKLOADS = {
    "sim-farm": SimFarm(),
    "attack-defense": AttackDefense(),
    "forensics-archive": ForensicsArchive(),
    "estimate-fit": EstimateFit(),
}


# -- tracing ------------------------------------------------------------------


def _add(counts, key, value):
    counts[key] += value


def install_tracing(tracer):
    """Wrap each layer's public entry points where their callers find them."""
    def sim(c, result, _a, _k):
        _add(c, "netsim.records", len(result.records))
        _add(c, "netsim.records_failed", sum(1 for r in result.records if not r.ok))

    def parse(c, result, _a, _k):
        _add(c, "bwfile.parse.entries", len(result.entries))
        _add(c, "bwfile.parse.skipped_lines", result.skipped_lines)

    def score(c, result, args, kwargs):
        _add(c, "defense.score_suspects.records", len(args[0]))
        _add(c, "defense.score_suspects.pair_drops", len(result.pair_drops))

    def refit(c, result, _a, _k):
        _add(c, "estimator.refit_curve.evaluations", result.evaluations)
        c["estimator.refit_curve.mse"] = result.mse

    wrap = tracer.wrap
    wrap(cli, "main", "cli.main")
    wrap(netsim, "run_simulation", "netsim.run_simulation", sim)
    wrap(netsim.FlowState, "allocations", "netsim.allocations",
         lambda c, r, _a, _k: _add(c, "netsim.allocations.flows", len(r)))
    wrap(netsim, "run_probe", "netsim.run_probe")
    wrap(netsim, "plan_round", "scanner.plan_round",
         lambda c, r, _a, _k: _add(c, "scanner.targets_planned", len(r)))
    wrap(netsim, "aggregate_consensus", "core.aggregate_consensus")
    wrap(bwfile, "parse_bandwidth_file", "bwfile.parse", parse)
    wrap(bwfile, "serialize_bandwidth_file", "bwfile.serialize")
    wrap(bwfile, "from_records", "bwfile.from_records")
    wrap(bwfile, "estimate_duration", "bwfile.estimate_duration")
    wrap(bwfile, "infer_threads", "bwfile.infer_threads")
    wrap(bwfile, "build_timeline", "bwfile.build_timeline",
         lambda c, r, _a, _k: _add(c, "bwfile.build_timeline.intervals",
                                   len(r.intervals)))
    wrap(coincidence, "count_events", "coincidence.count_events",
         lambda c, r, _a, _k: _add(c, "coincidence.count_events.intervals",
                                   r.total_measurements))
    wrap(coincidence, "coincidence_vs_window", "coincidence.coincidence_vs_window")
    wrap(defense, "score_suspects", "defense.score_suspects", score)
    wrap(defense, "plan_probes", "defense.plan_probes",
         lambda c, r, _a, _k: _add(c, "defense.probes_planned", len(r)))
    wrap(defense, "verify_shared_resource", "defense.verify_shared_resource")
    wrap(estimator, "refit_curve", "estimator.refit_curve", refit)
    wrap(estimator, "optimize_cluster", "estimator.optimize_cluster")


# -- repetition loop --------------------------------------------------------


def measure_setup(truth, setup):
    """Append SETUP_PER_REP fresh-interpreter set-up samples to setup."""
    argv = [sys.executable, "-c", SETUP_PROBE, os.environ["PYTHONPATH"],
            truth.get("scenario", "-")]
    for _ in range(SETUP_PER_REP):
        out = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                             check=True)
        for key, value in json.loads(out.stdout).items():
            setup[key].append(value)


def run_rep(workload, truth, tracer):
    shutil.rmtree("out", ignore_errors=True)
    os.makedirs("out")
    rep = Rep(tracer)
    first_span = 0
    if tracer is not None:
        first_span = len(tracer.spans)
        tracer.counts.clear()
        install_tracing(tracer)
    sampler = calib.Sampler()
    sampler.start()
    start = time.perf_counter()
    try:
        workload.body(rep, truth)
    finally:
        wall = time.perf_counter() - start
        busy = sampler.busy_s
        sampler.stop()
        if tracer is not None:
            tracer.restore()
    work = wall - busy  # the kernels' own time is not the workload's
    summary = {"traced": tracer is not None, "wall_s": work, "sampler_s": busy,
               "kernel_s": sampler.kernel_s(), "speed": sampler.speed(),
               "calibrated_wall_s": work / sampler.speed(),
               "phases": dict(rep.phases)}
    if tracer is not None:
        summary["spans"] = {k: list(v)
                            for k, v in span_totals(tracer.spans, first_span).items()}
        summary["counts"] = dict(tracer.counts)
        summary["first_span"] = first_span
    return rep, summary


def main(argv):
    name, work, seconds, traced, result_path = argv
    seconds, traced = float(seconds), traced == "1"
    os.chdir(work)
    truth = _read_json("truth.json")
    workload = WORKLOADS[name]
    tracer = Tracer() if traced else None

    deadline = time.perf_counter() + seconds
    reps, checked = [], {}
    attempted = 0
    failed = {}
    reference = None
    setup = defaultdict(list)
    measure_setup(truth, setup)
    while True:
        use_tracer = tracer if traced and len(reps) % 2 == 1 else None
        rep, summary = run_rep(workload, truth, use_tracer)
        digest = rep.digest()
        if digest not in checked:
            checked[digest] = (workload.check(rep, truth), dict(rep.failed))
        stats, check_failed = checked[digest]
        for label, reason in check_failed.items():
            rep.fail(label, reason)
        if reference is None:
            reference = rep
        else:
            for label in rep.ops:  # reruns and traced runs repeat outputs exactly
                if rep.digests.get(label) != reference.digests.get(label):
                    rep.fail(label, "outputs differ from the first repetition")
        attempted += len(rep.ops)
        for label, reason in rep.failed.items():
            failed.setdefault(label, []).append(reason)
        summary["digest"] = digest
        reps.append(summary)
        measure_setup(truth, setup)
        n_untraced = sum(1 for r in reps if not r["traced"])
        enough = n_untraced >= MIN_REPS and len(reps) - n_untraced >= (
            MIN_REPS if traced else 0)
        # stop before a repetition that would overrun the measuring window
        typical = quantile_summary([r["wall_s"] for r in reps])["median"]
        if enough and time.perf_counter() + typical > deadline:
            break

    result = {
        "reps": reps,
        "attempted": attempted,
        "failed": sum(len(v) for v in failed.values()),
        "failures": {k: sorted(set(v)) for k, v in failed.items()},
        "stats": stats,
        "digest": reference.digest(),
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        calls = defaultdict(list)
        for name_, start, end, _parent, _op in tracer.spans:
            calls[name_].append(end - start)
        result["span_calls"] = {k: quantile_summary(v) for k, v in calls.items()}
        last = max(r["first_span"] for r in reps if r["traced"])
        write_spans(result_path + ".spans.csv", tracer.spans, last)
    shutil.rmtree("out", ignore_errors=True)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
