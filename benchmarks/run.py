"""torbwsim benchmark: one run of one workload.

    python3 benchmarks/run.py --workload sim-farm --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing needs installing. The run generates its inputs from --seed,
then hands the timed body to benchmarks/body.py in one more interpreter
for --seconds seconds; that interpreter also times set-up in fresh ones.
wall_s and setup_s are calibrated to a reference host speed (calib.py); the
raw host seconds are printed next to them, and the raw wall time is reported
per layer as host.wall_s. The last line of stdout is the result object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. Lines
before it give every metric with its unit, sample counts and percentiles,
the simulated statistics and the outputs digest. The full result, and the spans of the last traced
repetition, are kept under benchmarks/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

import gen
from tracing import quantile_summary

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), "r") as _fh:
    SPEC = json.load(_fh)

BODY_GRACE_S = 120

def median(values):
    return quantile_summary(values)["median"]


def _env(root):
    # one thread per process: numpy's BLAS pool would otherwise add an idle one
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                OPENBLAS_NUM_THREADS="1")


def run_body(root, work, workload, seconds, trace, result_path):
    with open(os.path.join(work, "body.stderr"), "w") as err:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "body.py"), workload, work,
             str(seconds), str(trace), result_path],
            cwd=work, env=_env(root), stdout=subprocess.DEVNULL, stderr=err,
            timeout=seconds + BODY_GRACE_S)
    if proc.returncode != 0:
        with open(os.path.join(work, "body.stderr")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit("benchmark body failed with exit code %d" % proc.returncode)
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- metrics ------------------------------------------------------------------


def _phase(reps, name):
    return median([r["phases"].get(name, 0.0) for r in reps])


def calibrated_setup(setup, body, key):
    """Median set-up time at the reference host speed: divided by the
    median speed the kernels measured over the run's repetitions, between
    which the set-up samples were taken (calib.py)."""
    return median(setup[key]) / median([r["speed"] for r in body["reps"]])


def end_to_end(setup, body):
    untraced = [r for r in body["reps"] if not r["traced"]]
    return {
        "setup_s": calibrated_setup(setup, body, "setup_s"),
        "wall_s": median([r["calibrated_wall_s"] for r in untraced]),
        "peak_rss_mb": body["peak_rss_mb"],
    }


# spans reported as <name>.calls and <name>.s (inclusive seconds)
LAYER_SPANS = (
    "core.aggregate_consensus", "scanner.plan_round", "netsim.run_simulation",
    "netsim.allocations", "netsim.run_probe", "bwfile.parse", "bwfile.serialize",
    "bwfile.estimate_duration", "bwfile.infer_threads", "bwfile.build_timeline",
    "coincidence.count_events", "coincidence.coincidence_vs_window",
    "defense.score_suspects", "defense.plan_probes", "estimator.refit_curve",
    "estimator.optimize_cluster",
)
MODULES = ("cli", "core", "scanner", "netsim", "bwfile", "coincidence",
           "defense", "estimator")


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_rep(rep):
    """Per-layer values of one traced repetition."""
    spans, counts = rep["spans"], rep["counts"]

    def get(name, field):
        return spans.get(name, (0, 0.0, 0.0))[field]

    m = dict(counts)
    for name in LAYER_SPANS:
        m[name + ".calls"] = get(name, 0)
        m[name + ".s"] = get(name, 1)
    for module in MODULES:
        m[module + ".self_s"] = sum(v[2] for k, v in spans.items()
                                    if k.split(".")[0] == module)
    m["netsim.loop_self_s"] = get("netsim.run_simulation", 2)
    records = counts.get("netsim.records", 0)
    m["netsim.ms_per_record"] = 1000 * _ratio(m["netsim.run_simulation.s"], records)
    m["netsim.allocations.share"] = _ratio(
        m["netsim.allocations.s"], m["netsim.run_simulation.s"] + m["netsim.run_probe.s"])
    m["bwfile.parse.us_per_entry"] = 1e6 * _ratio(
        m["bwfile.parse.s"], counts.get("bwfile.parse.entries", 0))
    m["scanner.measured_ratio"] = _ratio(
        records - counts.get("netsim.records_failed", 0),
        counts.get("scanner.targets_planned", 0))
    return m


def per_layer(setup, body):
    untraced = [r for r in body["reps"] if not r["traced"]]
    traced = [r for r in body["reps"] if r["traced"]]
    layer_reps = [_layer_rep(r) for r in traced]
    names = {k for lr in layer_reps for k in lr}
    m = {k: median([lr.get(k, 0.0) for lr in layer_reps]) for k in names}

    stats = body["stats"]
    detect = stats.get("detect", {})
    simulate_s = _phase(untraced, "simulate")
    m.update({
        "cli.import_s": calibrated_setup(setup, body, "cli_import_s"),
        "estimator.import_s": calibrated_setup(setup, body, "estimator_import_s"),
        "simulate_s": simulate_s,
        "sim_records_per_s": _ratio(m.get("netsim.records", 0), simulate_s),
        "detect_s": _phase(untraced, "detect"),
        "confirm_s": _phase(untraced, "confirm"),
        "analyze_s": _phase(untraced, "analyze"),
        "estimate_s": _phase(untraced, "estimate"),
        "error_rate": body["failed"] / body["attempted"],
        "host.wall_s": median([r["wall_s"] for r in untraced]),
        "host.kernel_s": median([r["kernel_s"] for r in body["reps"]]),
        "trace.overhead": median([r["calibrated_wall_s"] for r in traced])
                          / median([r["calibrated_wall_s"] for r in untraced]),
        "defense.groups": detect.get("groups", 0),
        "defense.planted_recall": detect.get("planted_recall", 0.0),
        "defense.verdicts_correct": stats.get("confirm", {}).get("verdicts_correct", 0),
    })
    return m


def select(values, declared):
    """The declared metrics, in declared order, each with its unit.

    Every declared metric is reported on every workload; a layer a workload
    never enters reads 0 calls and 0 s.
    """
    return {d["name"]: (values.get(d["name"], 0.0), d["unit"]) for d in declared}


# -- reporting ----------------------------------------------------------------


def environment(root, setup):
    def run(argv):
        try:
            return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    sha = None
    if run(["git", "rev-parse", "--show-toplevel"]) == root:
        sha = run(["git", "rev-parse", "HEAD"])
    source = hashlib.sha256()
    package = os.path.join(root, "src", "torbwsim")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha or "unknown (not a git checkout)",
            "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "numpy": setup["numpy"][0],
            "nproc": os.cpu_count(), "platform": platform.platform()}


def _fmt(summary, unit):
    if summary["median"] is None:
        return "n/a"
    p = ("p%g %.6g %s" % (summary["p"], summary["p_value"], unit)
         if summary["p"] is not None else "no percentile with >=10 samples above")
    return "median %.6g %s, %s, n=%d" % (summary["median"], unit, p, summary["n"])


def report(args, env, setup, body, metrics):
    untraced = [r for r in body["reps"] if not r["traced"]]
    print("workload %s seed %d seconds %d trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("environment %s" % json.dumps(env, sort_keys=True))
    print("outputs digest %s" % body["digest"])
    print("simulated statistics %s" % json.dumps(body["stats"], sort_keys=True))
    if body["failures"]:
        print("FAILED operations %s" % json.dumps(body["failures"], sort_keys=True))
    print("timings (samples per metric; raw host seconds unless marked):")
    print("  setup_s calibrated: median %.6g s" % calibrated_setup(setup, body, "setup_s"))
    print("  setup_s raw: %s" % _fmt(quantile_summary(setup["setup_s"]), "s"))
    print("  wall_s calibrated: %s" % _fmt(quantile_summary(
        [r["calibrated_wall_s"] for r in untraced]), "s"))
    print("  wall_s raw: %s" % _fmt(quantile_summary([r["wall_s"] for r in untraced]), "s"))
    print("  calibration kernel: %s" % _fmt(quantile_summary(
        [r["kernel_s"] for r in body["reps"]]), "s"))
    for phase in sorted({p for r in untraced for p in r["phases"]}):
        print("  %s_s: %s" % (phase, _fmt(quantile_summary(
            [r["phases"].get(phase, 0.0) for r in untraced]), "s")))
    for name, summary in sorted(body.get("span_calls", {}).items()):
        print("  span %s per call: %s" % (name, _fmt(summary, "s")))
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print("  %s = %.6g %s" % (name, value, unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "torbwsim", "__init__.py")):
        sys.exit("error: run from the root of a torbwsim checkout (no src/torbwsim)")

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    work = os.path.join(HERE, ".work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        truth = gen.GENERATORS[args.workload](args.seed, work)
        with open(os.path.join(work, "truth.json"), "w", encoding="utf-8") as fh:
            json.dump(truth, fh)
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        body = run_body(root, work, args.workload, args.seconds, args.trace,
                        os.path.join(results, tag + ".json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup = body["setup"]
    if args.trace:
        metrics = select(per_layer(setup, body), SPEC["per_layer"])
    else:
        metrics = select(end_to_end(setup, body), SPEC["end_to_end"])
    env = environment(root, setup)
    report(args, env, setup, body, metrics)
    body.update({"seed": args.seed, "workload": args.workload, "env": env,
                 "setup": setup,
                 "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    with open(os.path.join(results, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1)
    print(json.dumps({
        "correct": body["failed"] == 0,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
