import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from datetime import datetime, timezone

import pytest

from conftest import fp
from torbwsim import estimator, netsim
from torbwsim.bwfile import build_timeline
from torbwsim.coincidence import count_events, distribution_rows, expected_inflation
from torbwsim.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_SIMULATION,
    _preset_bytes,
    _write_atomic,
    build_sim_config,
    main,
)
from torbwsim.core import MeasurementRecord, read_records_jsonl, records_to_jsonl
from torbwsim.netsim import run_simulation

T0 = 1672531200


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def minimal_config(**overrides):
    """Two honest middles sharing nothing, one fast exit."""
    doc = {
        "seed": 1,
        "duration": 3600,
        "consensus_interval": 3600,
        "relays": [
            {"relay_id": fp("cli/m0"), "host_id": "h0",
             "advertised_bw": "25 MB"},
            {"relay_id": fp("cli/m1"), "host_id": "h1",
             "advertised_bw": "25 MB"},
            {"relay_id": fp("cli/x0"), "host_id": "hx",
             "advertised_bw": "200 MB", "role": "exit"},
        ],
        "hosts": [
            {"host_id": "h0", "capacity": "50 MB"},
            {"host_id": "h1", "capacity": "50 MB"},
            {"host_id": "hx", "capacity": "400 MB"},
        ],
        "scanners": [{"ba_id": "ba0", "threads": 1, "round_budget": 3600}],
    }
    doc.update(overrides)
    return doc


def schema_config():
    """minimal_config with every optional section present."""
    return minimal_config(
        clusters={"clusters": [
            {"cluster_id": "c", "host_id": "h0", "members": [fp("cli/m0")]}
        ]},
        detector={"mode": "ip_filter"},
        user_load={fp("cli/m0"): "20 MB"},
    )


# section -> (path, value, message) for an unknown key, a wrongly shaped
# section and a wrongly typed value, then any out-of-range values; the empty
# path replaces the document
SCHEMA_CASES = {
    "root": [
        (("durration",), 3600, "config: unknown key 'durration'"),
        ((), [], "config: expected dict, got list"),
        (("duration",), "3600", "config.duration: expected int or float, got str"),
        (("time_compression",), 1.0, "config: unknown key 'time_compression'"),
        (("consensus_interval",), 0,
         "config: consensus_interval must be finite and > 0, got 0"),
        (("consensus_interval",), -3600,
         "config: consensus_interval must be finite and > 0, got -3600"),
        (("consensus_interval",), math.nan,
         "config: consensus_interval must be finite and > 0, got nan"),
        (("duration",), math.nan, "config: duration must be finite, got nan"),
        (("activation_times",), {fp("cli/m1"): math.nan},
         "config: activation time for %s must be finite, got nan" % fp("cli/m1")),
    ],
    "relays": [
        (("relays", 0, "polcy"), "honest", "config.relays[0]: unknown key 'polcy'"),
        (("relays",), {}, "config.relays: expected list, got dict"),
        (("relays", 0, "family_id"), 7,
         "config.relays[0].family_id: expected str or NoneType, got int"),
    ],
    "hosts": [
        (("hosts", 0, "capcity"), "50 MB", "config.hosts[0]: unknown key 'capcity'"),
        (("hosts",), {"host_id": "h0"}, "config.hosts: expected list, got dict"),
        (("hosts", 0, "efficiency"), "1",
         "config.hosts[0].efficiency: expected int or float, got str"),
    ],
    "clusters": [
        (("clusters", "clustres"), [], "config.clusters: unknown key 'clustres'"),
        (("clusters",), [], "config.clusters: expected dict, got list"),
        (("clusters", "dedicated_server"), 5,
         "config.clusters.dedicated_server: expected str or NoneType, got int"),
    ],
    "clusters.clusters[i]": [
        (("clusters", "clusters", 0, "member"), [],
         "config.clusters.clusters[0]: unknown key 'member'"),
        (("clusters", "clusters", 0), "c",
         "config.clusters.clusters[0]: expected dict, got str"),
        (("clusters", "clusters", 0, "members"), fp("cli/m0"),
         "config.clusters.clusters[0].members: expected list, got str"),
    ],
    "scanners": [
        (("scanners", 0, "min_duration_per_download"), 5.0,
         "config.scanners[0]: unknown key 'min_duration_per_download'"),
        (("scanners", 0, "downloads_per_measurement"), 5,
         "config.scanners[0]: unknown key 'downloads_per_measurement'"),
        (("scanners", 0, "exit_speed_factor"), 2.0,
         "config.scanners[0]: unknown key 'exit_speed_factor'"),
        (("scanners",), {"threads": 1}, "config.scanners: expected list, got dict"),
        (("scanners", 0, "threads"), "4",
         "config.scanners[0].threads: expected int, got str"),
        (("scanners", 0, "round_budget"), 0,
         "config.scanners[0]: round_budget must be > 0, got 0"),
        (("scanners", 0, "round_budget"), -5,
         "config.scanners[0]: round_budget must be > 0, got -5"),
    ],
    "detector": [
        (("detector", "fp_rate"), 0.3, "config.detector: unknown key 'fp_rate'"),
        (("detector",), [], "config.detector: expected dict, got list"),
        (("detector", "false_negative_rate"), "0.1",
         "config.detector.false_negative_rate: expected int or float, got str"),
        (("detector", "per_packet_latency"), 0.0005,
         "config.detector: unknown key 'per_packet_latency'"),
    ],
    "user_load": [
        (("user_load", fp("cli/ghost")), "1 MB",
         "config: user_load for unknown relay %r" % fp("cli/ghost")),
        (("user_load",), [], "config.user_load: expected dict, got list"),
        (("user_load", fp("cli/m0")), 20,
         "config.user_load[%r]: bare number 20" % fp("cli/m0")),
    ],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_bwfile(directory, name, end_offsets, relay_labels=None,
                 bw=25_000_000):
    lines = [str(T0), "====="]
    for i, off in enumerate(end_offsets):
        label = relay_labels[i] if relay_labels else "bw/%s/%d" % (name, i)
        lines.append(
            "bw=%d node_id=$%s time=%d" % (bw, fp(label), T0 + int(off))
        )
    path = directory / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSimulate:
    def test_all_honest_preset(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _err = run(
            capsys, "simulate", "--preset", "all-honest", "--out", str(out)
        )
        assert code == EXIT_OK
        line = json.loads(stdout)
        assert line["baseline_bw"] == pytest.approx(25_000_000.0)
        assert line["inflation"] == pytest.approx(1.0)

        for name in ("records.jsonl", "consensus.csv", "summary.json",
                     "manifest.json"):
            assert (out / name).is_file()
        summary = read_json(out / "summary.json")
        assert summary["seed"] == 42
        assert summary["groups"] == {}
        assert summary["records_ok"] > 0

        manifest = read_json(out / "manifest.json")
        assert manifest["command"].startswith("torbwsim simulate")
        assert len(manifest["config_digest"]) == 64
        assert manifest["seed"] == 42
        assert manifest["outputs"] == sorted(manifest["outputs"])
        on_disk = set()
        for root, _dirs, files in os.walk(out):
            for f in files:
                rel = os.path.relpath(os.path.join(root, f), out)
                on_disk.add(rel)
        assert set(manifest["outputs"]) == on_disk - {"manifest.json"}

    def test_cotormult_preset_inflates_five_fold(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _err = run(
            capsys, "simulate", "--preset", "cotormult-n5", "--out", str(out)
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["inflation"] == pytest.approx(5.0)
        summary = read_json(out / "summary.json")
        (group,) = summary["groups"].values()
        assert len(group["relays"]) == 5
        assert group["inflation"] == pytest.approx(5.0)

    def test_detormult_preset_inflates_per_cluster(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _err = run(
            capsys, "simulate", "--preset", "detormult-3x6", "--out", str(out)
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["inflation"] == pytest.approx(7.92)
        summary = read_json(out / "summary.json")
        assert len(summary["groups"]) == 3
        for group in summary["groups"].values():
            assert group["inflation"] == pytest.approx(2.64)

    # sha256 of every seeded output of each preset. A refactor that should
    # not change behaviour must leave these unchanged; a change that moves
    # them must say why.
    PRESET_SHA256 = {
        "all-honest": {
            "records.jsonl": "c69816fbae90bd8d8819096bad75f65fa8a406c3298eabe11145a2939ea856f3",
            "consensus.csv": "76ba19e09c1603db0c4f87f9a44fca88a8934edbba5b23e26be8fd948152fd77",
            "summary.json": "a4ec9955b46420383d60df62bbb2194bae7461d1b57caf15e8080415ca76ce0c",
            "bwfiles/ba0.bw": "550b8870927d55d9c986e07f69f592fa3793964958559c39e9c3a0cc1b920b3d",
        },
        "cotormult-n5": {
            "records.jsonl": "e8640a1272639ef3198660971d47ac31f221e7200fe67a229c3410cc30566ba7",
            "consensus.csv": "8253577178480fe8b4b8f5a2f12ee9f23445bb58bf7fe2c1e11d4f5a18d6fa25",
            "summary.json": "e96e60d2cf8afb4a417f146f1911c249b06d60150f929705e0ac3ce7bffa94b6",
            "bwfiles/ba0.bw": "9d4d6ff98f6fc06fbf5ad214cf1b02d0305ace2ad4b0555d602ac4f44f3f7c8c",
        },
        "detormult-3x6": {
            "records.jsonl": "139a7188c772bbfbfbfb7af21e24e16138dc8ffc2b8d8a6155149b93baaf6cf5",
            "consensus.csv": "4427cd3de924f98b1dc76fadf3a766a2b80268cde2cfa693e798449b9036fb6e",
            "summary.json": "3ed0d7dc4222054b593ab462576853b5b288befa43d01fa51468c231b644dbc5",
            "bwfiles/ba0.bw": "ed42d34de6a930d2d086c06591c760bde34a4308859d04d2703fad79a995dd61",
        },
    }

    @pytest.mark.parametrize("preset", sorted(PRESET_SHA256))
    def test_preset_outputs_pinned(self, preset, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(capsys, "simulate", "--preset", preset, "--out", str(out))[0] == 0
        names = ["records.jsonl", "consensus.csv", "summary.json"] + sorted(
            "bwfiles/" + name for name in os.listdir(out / "bwfiles")
        )
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names
        }
        assert digests == self.PRESET_SHA256[preset]

    @staticmethod
    def delayed_detector_config():
        """CoTorMult, DeTorMult and drop_on_measure relays under a parametric
        detector with a detection delay, misses and false positives, measured
        by 2 scanners x 4 threads. Every preset detects at once and never
        errs, so only a scenario like this one checks the simulator's
        detection instants and false-positive epochs. With seed 2 the
        CoTorMult host draws a false positive for the fourth epoch."""
        def relay(label, host, bw, **extra):
            return {"relay_id": fp("pin/" + label), "host_id": host,
                    "advertised_bw": bw, **extra}

        relays = [relay("ct%d" % i, "ct", "25 MB", policy="cotormult_member",
                        family_id="ct") for i in range(3)]
        relays += [relay("dt%d" % i, "dt", "25 MB", policy="detormult_member",
                         family_id="dt") for i in range(3)]
        relays += [relay("dr%d" % i, "dr", "30 MB", policy="drop_on_measure")
                   for i in range(2)]
        relays += [relay("h%d" % i, "h%d" % i, "25 MB") for i in range(3)]
        exits = [relay("x%d" % i, "x%d" % i, "200 MB", role="exit")
                 for i in range(2)]
        hosts = [{"host_id": "ct", "capacity": "50 MB", "efficiency": 0.95},
                 {"host_id": "dt", "capacity": "25 MB"},
                 {"host_id": "ded", "capacity": "50 MB",
                  "kind": "dedicated_server", "efficiency": 0.22},
                 {"host_id": "dr", "capacity": "50 MB"}]
        hosts += [{"host_id": "h%d" % i, "capacity": "50 MB"} for i in range(3)]
        hosts += [{"host_id": "x%d" % i, "capacity": "400 MB"} for i in range(2)]
        return {
            "seed": 2, "duration": 3600, "consensus_interval": 600,
            "hosts": hosts, "relays": relays + exits,
            "clusters": {"clusters": [
                {"cluster_id": c, "host_id": c, "members": [
                    r["relay_id"] for r in relays if r["host_id"] == c]}
                for c in ("ct", "dt")], "dedicated_server": "ded"},
            "scanners": [{"threads": 4, "round_budget": 900}] * 2,
            "user_load": {r["relay_id"]: "10 MB" for r in relays},
            "detector": {"mode": "parametric", "detection_delay_packets": 5,
                         "false_negative_rate": 0.05,
                         "false_positive_rate": 0.02},
        }

    DELAYED_DETECTOR_SHA256 = {
        "records.jsonl": "67c949f55590404d0e683a399400f6c2ce741fc95d957e18d6edcc85276ba8ad",
        "consensus.csv": "5bf127f0e4ad46c21592fc187ce2a7abc9e43f26413236bd7942679421f42d93",
        "summary.json": "0c667aad9f1cfa74ff11987dac8af3716a225e33b72151b4883aae64fec41ef5",
    }

    def test_delayed_detector_outputs_pinned(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.delayed_detector_config())
        out = tmp_path / "run"
        assert run(capsys, "simulate", "--config", cfg, "--out", str(out))[0] == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in self.DELAYED_DETECTOR_SHA256
        }
        assert digests == self.DELAYED_DETECTOR_SHA256

    def test_outputs_independent_of_hash_seed(self, tmp_path):
        # consensus weights and attacker groups are built in dict order
        cfg = write_config(tmp_path, self.delayed_detector_config())
        src = os.path.dirname(os.path.dirname(netsim.__file__))
        for hash_seed in range(4):
            out = tmp_path / ("run%d" % hash_seed)
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "torbwsim.cli", "simulate",
                 "--config", cfg, "--out", str(out)],
                env=env, capture_output=True, check=True)
            digests = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in self.DELAYED_DETECTOR_SHA256
            }
            assert digests == self.DELAYED_DETECTOR_SHA256, hash_seed

    @pytest.mark.parametrize("preset", ["all-honest", "detormult-3x6"])
    def test_summary_json_is_summarize(self, preset, tmp_path, capsys):
        # detormult-3x6 has three attacker groups; all-honest has none
        out = tmp_path / "run"
        assert run(capsys, "simulate", "--preset", preset, "--out", str(out))[0] == 0
        cfg = build_sim_config(json.loads(_preset_bytes(preset)))
        summary = netsim.summarize(cfg, run_simulation(cfg))
        on_disk = read_json(out / "summary.json")
        assert on_disk == summary
        assert list(on_disk) == list(summary)

    def test_custom_config_and_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_config())
        out = tmp_path / "run"
        code, stdout, _err = run(
            capsys, "simulate", "--config", cfg, "--seed", "9", "--out", str(out)
        )
        assert code == EXIT_OK
        summary = read_json(out / "summary.json")
        assert summary["seed"] == 9
        assert read_json(out / "manifest.json")["seed"] == 9
        # an honest-only scenario self-calibrates to 1
        assert summary["inflation"] == pytest.approx(1.0)

    def test_records_round_trip_through_jsonl(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_config())
        out = tmp_path / "run"
        assert run(capsys, "simulate", "--config", cfg, "--out", str(out))[0] == 0
        records = read_records_jsonl(str(out / "records.jsonl"))
        assert records
        assert records_to_jsonl(records) == (out / "records.jsonl").read_text()
        # unknown keys are ignored; a missing start and the counters default
        with open(out / "records.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"relay_id": "%s", "ba_id": "ba0", "end": 30, "bw": 5, '
                     '"note": "x", "scanner": {}}\n' % fp("x"))
        assert read_records_jsonl(str(out / "records.jsonl"))[-1] == MeasurementRecord(
            relay_id=fp("x"), ba_id="ba0", thread_id=0, start_time=None,
            end_time=30, measured_bw=5)

    def test_bwfile_written_per_scanner(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_config())
        out = tmp_path / "run"
        run(capsys, "simulate", "--config", cfg, "--out", str(out))
        data = (out / "bwfiles" / "ba0.bw").read_text()
        assert data.splitlines()[0] == "1650000000"
        assert "node_id=$" in data

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _out, err = run(
            capsys, "simulate", "--config", str(path), "--out",
            str(tmp_path / "run")
        )
        assert code == EXIT_CONFIG
        assert "not valid JSON" in err

    def test_bare_number_bandwidth_rejected(self, tmp_path, capsys):
        doc = minimal_config()
        doc["relays"][0]["advertised_bw"] = 25_000_000
        cfg = write_config(tmp_path, doc)
        code, _out, err = run(
            capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "run")
        )
        assert code == EXIT_CONFIG
        assert "relays[0].advertised_bw" in err

    def test_missing_field_names_location(self, tmp_path, capsys):
        doc = minimal_config()
        del doc["relays"][1]["host_id"]
        cfg = write_config(tmp_path, doc)
        code, _out, err = run(
            capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "run")
        )
        assert code == EXIT_CONFIG
        assert "relays[1]" in err and "host_id" in err

    @pytest.mark.parametrize("section", sorted(SCHEMA_CASES))
    def test_schema_errors_name_location(self, section, tmp_path, capsys):
        build_sim_config(schema_config())
        for path, value, message in SCHEMA_CASES[section]:
            doc = schema_config()
            if path:
                target = doc
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = value
            else:
                doc = value
            cfg = write_config(tmp_path, doc)
            code, _out, err = run(
                capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "run")
            )
            assert code == EXIT_CONFIG, (path, err)
            assert message in err, (path, err)

    def test_duplicate_relay_rejected(self, tmp_path, capsys):
        doc = minimal_config()
        doc["relays"].append(dict(doc["relays"][0]))
        cfg = write_config(tmp_path, doc)
        code, _out, err = run(
            capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "run")
        )
        assert code == EXIT_CONFIG
        assert "duplicate relay_id" in err

    def test_scannerless_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_config(scanners=[]))
        code, _out, err = run(
            capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "run")
        )
        assert code == EXIT_CONFIG
        assert "at least one scanner" in err

    def test_unreadable_config_path(self, tmp_path, capsys):
        code, _out, err = run(
            capsys, "simulate", "--config", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "run")
        )
        assert code == EXIT_CONFIG
        assert "cannot read config" in err

    def test_unknown_preset_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "nope", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unmeasurable_scenario_exits_3(self, tmp_path, capsys):
        doc = minimal_config()
        doc["relays"][2]["advertised_bw"] = "20 MB"  # slower than 2x targets
        cfg = write_config(tmp_path, doc)
        code, _out, err = run(
            capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "run")
        )
        assert code == EXIT_SIMULATION
        assert "simulation failed" in err


class TestAnalyze:
    def _single_thread_corpus(self, tmp_path):
        bwdir = tmp_path / "bw"
        bwdir.mkdir()
        write_bwfile(bwdir, "scanner-a", [i * 37 for i in range(15)],
                     relay_labels=["r%d" % (i % 3) for i in range(15)])
        return bwdir

    def test_durations(self, tmp_path, capsys):
        bwdir = self._single_thread_corpus(tmp_path)
        out = tmp_path / "out"
        code, stdout, _err = run(
            capsys, "analyze", "durations", str(bwdir), "--out", str(out),
            "--iterations", "10", "--seed", "7"
        )
        assert code == EXIT_OK
        assert json.loads(stdout) == {"median": 37.0}
        doc = read_json(out / "durations.json")
        assert doc["median"] == 37.0
        assert doc["thread_count_histogram"] == {"1": 10}
        assert doc["sample_count"] == 140
        assert read_json(out / "manifest.json")["seed"] == 7

    @pytest.mark.parametrize("subcommand,flag", [
        ("durations", "--duration"),
        ("coincidence", "--iterations"),
        ("coincidence", "--seed"),
        ("window-sweep", "--iterations"),
        ("window-sweep", "--seed"),
    ])
    def test_unread_flags_rejected(self, tmp_path, subcommand, flag):
        # each analysis registers only the flags it reads
        argv = ["analyze", subcommand, str(tmp_path), "--out",
                str(tmp_path / "out"), flag, "5"]
        if subcommand != "durations":
            argv += ["--relays", str(tmp_path / "relays.txt")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_durations_insufficient_data(self, tmp_path, capsys):
        bwdir = tmp_path / "bw"
        bwdir.mkdir()
        write_bwfile(bwdir, "scanner-a", [0, 5, 10],
                     relay_labels=["a", "b", "c"])
        code, _out, err = run(
            capsys, "analyze", "durations", str(bwdir), "--out",
            str(tmp_path / "out")
        )
        assert code == EXIT_DATA
        assert "insufficient data" in err

    def test_unparsable_files_skipped(self, tmp_path, capsys):
        bwdir = self._single_thread_corpus(tmp_path)
        (bwdir / "junk.txt").write_text("not a bandwidth file\n")
        code, stdout, _err = run(
            capsys, "analyze", "durations", str(bwdir), "--out",
            str(tmp_path / "out"), "--iterations", "5"
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["median"] == 37.0

    def test_no_parsable_files(self, tmp_path, capsys):
        bwdir = tmp_path / "bw"
        bwdir.mkdir()
        (bwdir / "junk.txt").write_text("nothing here\n")
        code, _out, err = run(
            capsys, "analyze", "durations", str(bwdir), "--out",
            str(tmp_path / "out")
        )
        assert code == EXIT_CONFIG
        assert "no parsable bandwidth files" in err

    def _coincidence_corpus(self, tmp_path):
        """With duration 10: one solo, one pair, one chain of three."""
        bwdir = tmp_path / "bw"
        bwdir.mkdir()
        labels = ["c/a", "c/b", "c/c", "c/d", "c/e", "c/f"]
        write_bwfile(bwdir, "scanner-a", [110, 130, 135, 160, 165, 170],
                     relay_labels=labels)
        relays = tmp_path / "relays.txt"
        # mixed case and $ prefixes must normalize
        relays.write_text("\n".join(
            "$" + fp(lab).lower() if i % 2 else fp(lab)
            for i, lab in enumerate(labels)
        ) + "\n")
        return bwdir, relays

    def test_coincidence_distribution(self, tmp_path, capsys):
        bwdir, relays = self._coincidence_corpus(tmp_path)
        out = tmp_path / "out"
        code, stdout, _err = run(
            capsys, "analyze", "coincidence", str(bwdir), "--out", str(out),
            "--relays", str(relays), "--duration", "10"
        )
        assert code == EXIT_OK
        line = json.loads(stdout)
        assert line["total_measurements"] == 6
        assert line["expected_inflation"] == pytest.approx(3.0)
        rows = (out / "distribution.csv").read_text().splitlines()
        assert rows[0] == "k,count,probability"
        assert rows[1] == "1,1,0.166666667"
        assert rows[2] == "2,2,0.333333333"
        assert rows[3] == "3,3,0.500000000"

    def test_coincidence_with_window(self, tmp_path, capsys):
        bwdir, relays = self._coincidence_corpus(tmp_path)
        out = tmp_path / "out"
        code, stdout, _err = run(
            capsys, "analyze", "coincidence", str(bwdir), "--out", str(out),
            "--relays", str(relays), "--duration", "10",
            "--window", "%d,%d" % (T0 + 100, T0 + 140)
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["total_measurements"] == 3
        rows = (out / "distribution.csv").read_text().splitlines()
        assert len(rows) == 3  # header, k=1, k=2

    def test_coincidence_bad_window(self, tmp_path, capsys):
        bwdir, relays = self._coincidence_corpus(tmp_path)
        code, _out, err = run(
            capsys, "analyze", "coincidence", str(bwdir), "--out",
            str(tmp_path / "out"), "--relays", str(relays),
            "--window", "abc"
        )
        assert code == EXIT_CONFIG
        assert "START,END" in err

    def test_window_sweep(self, tmp_path, capsys):
        bwdir, relays = self._coincidence_corpus(tmp_path)
        out = tmp_path / "out"
        code, stdout, _err = run(
            capsys, "analyze", "window-sweep", str(bwdir), "--out", str(out),
            "--relays", str(relays), "--duration", "10",
            "--window", "30", "--window", "80"
        )
        assert code == EXIT_OK
        assert json.loads(stdout) == {"windows_reported": 2}
        rows = (out / "window_sweep.csv").read_text().splitlines()
        assert rows[0] == "window_seconds,p2"
        assert rows[1] == "30,0.666666667"
        assert rows[2] == "80,0.333333333"

    def test_window_sweep_default_windows(self, tmp_path, capsys):
        bwdir, relays = self._coincidence_corpus(tmp_path)
        code, stdout, _err = run(
            capsys, "analyze", "window-sweep", str(bwdir), "--out",
            str(tmp_path / "out"), "--relays", str(relays), "--duration", "10"
        )
        assert code == EXIT_OK
        assert json.loads(stdout) == {"windows_reported": 4}

    def test_window_sweep_repeated_and_fractional_lengths(self, tmp_path, capsys):
        bwdir, relays = self._coincidence_corpus(tmp_path)
        out = tmp_path / "out"
        code, stdout, _err = run(
            capsys, "analyze", "window-sweep", str(bwdir), "--out", str(out),
            "--relays", str(relays), "--duration", "10",
            "--window", "80,30,80", "--window", "30.4"
        )
        assert code == EXIT_OK
        assert json.loads(stdout) == {"windows_reported": 3}
        rows = (out / "window_sweep.csv").read_text().splitlines()
        assert rows == ["window_seconds,p2", "80,0.333333333",
                        "30,0.666666667", "30.4,0.666666667"]

    def test_relays_file_rejects_non_fingerprint(self, tmp_path, capsys):
        bwdir, relays = self._coincidence_corpus(tmp_path)
        with open(relays, "a", encoding="utf-8") as fh:
            fh.write("\nnot-a-fingerprint\n")
        code, _out, err = run(
            capsys, "analyze", "coincidence", str(bwdir), "--out",
            str(tmp_path / "out"), "--relays", str(relays)
        )
        assert code == EXIT_CONFIG
        assert "%s:8: not a relay fingerprint: 'not-a-fingerprint'" % relays in err

    def test_coincidence_on_simulated_records(self, tmp_path, capsys):
        # records.jsonl carries true start times, which the timeline keeps
        records_path, members = TestDetect()._sim_records(tmp_path, capsys)
        relays = tmp_path / "members.txt"
        relays.write_text("\n".join(sorted(members)) + "\n")
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, "analyze", "coincidence", records_path, "--out", str(out),
            "--relays", str(relays)
        )
        assert code == EXIT_OK, err
        result = run_simulation(build_sim_config(read_json(tmp_path / "config.json")))
        want = count_events(build_timeline(result.records, 39.0), members)
        assert json.loads(stdout) == {
            "total_measurements": want.total_measurements,
            "expected_inflation": expected_inflation(want),
        }
        rows = (out / "distribution.csv").read_text().splitlines()
        assert rows[1:] == ["%d,%d,%.9f" % row for row in distribution_rows(want)]

    def test_empty_relays_file(self, tmp_path, capsys):
        bwdir, _relays = self._coincidence_corpus(tmp_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        code, _out, err = run(
            capsys, "analyze", "coincidence", str(bwdir), "--out",
            str(tmp_path / "out"), "--relays", str(empty)
        )
        assert code == EXIT_CONFIG
        assert "lists no relays" in err

    def test_missing_relays_file(self, tmp_path, capsys):
        bwdir, _relays = self._coincidence_corpus(tmp_path)
        code, _out, err = run(
            capsys, "analyze", "coincidence", str(bwdir), "--out",
            str(tmp_path / "out"), "--relays", str(tmp_path / "none.txt")
        )
        assert code == EXIT_CONFIG
        assert "cannot read relays file" in err


class TestEstimate:
    def test_inflation(self, capsys):
        code, stdout, _err = run(capsys, "estimate", "inflation", "--x", "1")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["x"] == 1
        assert doc["inflation"] == pytest.approx(0.8719054083442239, abs=1e-12)

    def test_inflation_domain_error(self, capsys):
        code, _out, err = run(capsys, "estimate", "inflation", "--x", "121")
        assert code == EXIT_CONFIG
        assert "domain" in err

    def test_servers(self, capsys):
        code, stdout, _err = run(
            capsys, "estimate", "servers", "--x", "109",
            "--b", "678 Gbit", "--p", "50", "--d", "100 MB"
        )
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["servers"] == 10
        assert doc["total_relays"] == 1090
        assert doc["b_bytes_per_second"] == pytest.approx(84.75e9)
        assert doc["d_bytes_per_second"] == pytest.approx(100e6)

    def test_servers_rejects_bare_numbers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "servers", "--x", "109",
                  "--b", "678000000000", "--p", "50", "--d", "100 MB"])
        assert exc.value.code == 2

    def test_optimize(self, capsys):
        code, stdout, _err = run(
            capsys, "estimate", "optimize",
            "--b", "678 Gbit", "--p", "50", "--d", "100 MB"
        )
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["x"] == 25
        assert doc["servers"] == 36
        assert doc["objective"] == 61
        assert doc["total_relays"] == 900

    def test_refit_recovers_curve(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        rows = ["x,y"] + [
            "%d,%r" % (x, estimator.inflation_curve(x)) for x in range(1, 41)
        ]
        samples.write_text("\n".join(rows) + "\n")
        code, stdout, _err = run(
            capsys, "estimate", "refit", "--samples", str(samples)
        )
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["mse"] < 1e-6
        assert len(doc["coefficients"]) == 5
        assert doc["evaluations"] > 0

    @pytest.mark.parametrize("bad", ["5,nan", "inf,4"])
    def test_refit_rejects_nonfinite_samples(self, tmp_path, capsys, bad):
        samples = tmp_path / "samples.csv"
        rows = ["x,y"] + ["%d,%d" % (x, x) for x in range(1, 9)] + [bad]
        samples.write_text("\n".join(rows) + "\n")
        code, stdout, err = run(
            capsys, "estimate", "refit", "--samples", str(samples)
        )
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert "samples.csv:10: expected 'x,y' pairs of finite numbers" in err

    def test_refit_rejects_malformed_samples(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("x,y\n1,2\nthree,4\n")
        code, _out, err = run(
            capsys, "estimate", "refit", "--samples", str(samples)
        )
        assert code == EXIT_CONFIG
        assert "expected 'x,y' pairs" in err


class TestDetect:
    def _sim_records(self, tmp_path, capsys):
        members = [fp("det/m%d" % i) for i in range(5)]
        honest = [fp("det/h%d" % i) for i in range(8)]
        doc = {
            "seed": 7,
            "duration": 14400,
            "consensus_interval": 3600,
            "relays": (
                [{"relay_id": m, "host_id": "pool",
                  "advertised_bw": "50 MB", "policy": "cotormult_member",
                  "family_id": "pool"} for m in members]
                + [{"relay_id": h, "host_id": "hh%d" % i,
                    "advertised_bw": "25 MB"} for i, h in enumerate(honest)]
                + [{"relay_id": fp("det/x%d" % i), "host_id": "hx%d" % i,
                    "advertised_bw": "200 MB", "role": "exit"}
                   for i in range(2)]
            ),
            "hosts": (
                [{"host_id": "pool", "capacity": "50 MB", "efficiency": 0.95}]
                + [{"host_id": "hh%d" % i, "capacity": "50 MB"}
                   for i in range(8)]
                + [{"host_id": "hx%d" % i, "capacity": "400 MB"}
                   for i in range(2)]
            ),
            "clusters": {"clusters": [
                {"cluster_id": "pool", "members": members, "host_id": "pool"}
            ]},
            "scanners": [{"ba_id": "ba0", "threads": 2, "round_budget": 900}],
            "user_load": {m: "20 MB" for m in members},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sim"
        code, _stdout, err = run(
            capsys, "simulate", "--config", cfg, "--out", str(out)
        )
        assert code == EXIT_OK, err
        return str(out / "records.jsonl"), set(members)

    def test_detect_recovers_cluster_from_records(self, tmp_path, capsys):
        records_path, members = self._sim_records(tmp_path, capsys)
        out = tmp_path / "det"
        code, stdout, _err = run(
            capsys, "detect", records_path, "--out", str(out)
        )
        assert code == EXIT_OK
        line = json.loads(stdout)
        assert [set(g) for g in line["suspected_groups"]] == [members]
        assert line["probes_planned"] > 0

        suspicion = read_json(out / "suspicion.json")
        assert [set(g) for g in suspicion["groups"]] == [members]
        for relay, score in suspicion["scores"].items():
            if relay not in members:
                assert score < suspicion["threshold"]

        probe_lines = (out / "probes.csv").read_text().splitlines()
        assert probe_lines[0] == "relay_a,relay_b,scheduled_time,expected_drop"
        assert len(probe_lines) == 1 + line["probes_planned"]
        first = probe_lines[1].split(",")
        assert {first[0], first[1]} <= members

    def test_detect_on_bwfile_directory(self, tmp_path, capsys):
        bwdir = tmp_path / "bw"
        bwdir.mkdir()
        # A and B always end together and halve; C stands alone
        offsets, labels = [], []
        for k in range(6):
            offsets += [k * 200, k * 200, k * 200 + 100]
            labels += ["d/a", "d/b", "d/c"]
        write_bwfile(bwdir, "scanner-a", offsets, relay_labels=labels)
        out = tmp_path / "det"
        code, stdout, _err = run(
            capsys, "detect", str(bwdir), "--out", str(out), "--duration", "39"
        )
        assert code == EXIT_OK
        # same bandwidth everywhere: no drop signal, no groups
        assert json.loads(stdout)["suspected_groups"] == []

    def test_detect_needs_two_relays(self, tmp_path, capsys):
        records = [
            {"relay_id": fp("solo"), "ba_id": "ba0", "end": 100.0 * i,
             "bw": 1.0} for i in range(1, 4)
        ]
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code, _out, err = run(
            capsys, "detect", str(path), "--out", str(tmp_path / "det")
        )
        assert code == EXIT_DATA
        assert "at least 2 relays" in err
        assert "3 records" in err

    def test_detect_missing_input(self, tmp_path, capsys):
        code, _out, err = run(
            capsys, "detect", str(tmp_path / "nothing"),
            "--out", str(tmp_path / "det")
        )
        assert code == EXIT_CONFIG
        assert "does not exist" in err

    def test_detect_bad_jsonl(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        bad_bw = '{"relay_id": "%s", "ba_id": "ba0", "end": 30, "bw": %s}'
        no_end = '{"relay_id": "%s", "ba_id": "ba0", "bw": 5}' % fp("x")
        mistyped = [
            json.dumps({"relay_id": fp("x"), "ba_id": "ba0", "end": 30, "bw": 5,
                        key: value})
            for key, value in (
                ("end", "100"), ("end", math.nan), ("end", True),
                ("end", 10**400), ("bw", True),
                ("start", "0"), ("start", -math.inf), ("start", False),
                ("ba_id", 7), ("thread_id", 1.5), ("thread_id", True),
                ("bytes", "8"), ("downloads", 2.0), ("ok", 1), ("ok", "true"))
        ]
        for line in ['{"relay_id": "x"}', "[1, 2]", '"x"', no_end,
                     bad_bw % (fp("x"), "Infinity"), bad_bw % (fp("x"), "NaN"),
                     bad_bw % ("A" * 40 + "\\n", 5)] + mistyped:
            path.write_text(line + "\n")
            code, _out, err = run(
                capsys, "detect", str(path), "--out", str(tmp_path / "det")
            )
            assert code == EXIT_CONFIG, line
            assert "records.jsonl:1" in err

    def test_detect_non_object_lines(self, tmp_path, capsys):
        bwdir = tmp_path / "bw"
        bwdir.mkdir()
        one = write_bwfile(bwdir, "one.bw", [0, 40])
        path = tmp_path / "records.jsonl"
        path.write_text("[1, 2]\n")
        for given, message in (
                (one, "one.bw:1: bad record: expected a JSON object, got int; "
                      "bandwidth files are read from their directory"),
                (path, "records.jsonl:1: bad record: expected a JSON object, got list")):
            code, _out, err = run(
                capsys, "detect", str(given), "--out", str(tmp_path / "det")
            )
            assert code == EXIT_CONFIG, given
            assert message in err, err

    @pytest.mark.parametrize("budget", ["0", "-4"])
    def test_unusable_probe_budget_exits_2(self, budget, tmp_path, capsys):
        # the relays never overlap, so no pair drop would reach plan_probes
        records = [
            {"relay_id": fp("apart/%d" % (i % 2)), "ba_id": "ba0",
             "start": 100.0 * i, "end": 100.0 * i + 30, "bw": 1.0}
            for i in range(6)
        ]
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["detect", str(path), "--out", str(tmp_path / "det"),
                  "--probe-budget", budget])
        assert exc.value.code == EXIT_CONFIG
        assert "--probe-budget" in capsys.readouterr().err


def write_archive(directory):
    """Hourly files from two scanners, in the shape of a published archive.

    Each file repeats the latest entry of every relay measured so far, so
    most entries recur across consecutive files, and each carries a few
    malformed lines. End times come as canonical ISO, unpadded ISO and unix
    seconds. Four pot relays split one capacity while their assumed 39 s
    measurements overlap. Returns the relays file listing the pot.
    """
    rng = random.Random("pinned-archive")
    relays = [fp("archive/%d" % i) for i in range(24)]
    pot = relays[:4]
    for scanner in ("sbws-a", "sbws-b"):
        ends = []
        t = T0
        while t < T0 + 4 * 3600:
            t += rng.randrange(4, 40)
            ends.append((t, rng.choice(pot if rng.random() < 0.35 else relays)))
        pot_ends = [end for end, relay in ends if relay in pot]
        latest = {}
        for hour in range(1, 5):
            file_time = T0 + hour * 3600
            for end, relay in ends:
                if file_time - 3600 < end <= file_time:
                    if relay in pot:
                        k = sum(1 for e in pot_ends if abs(e - end) < 39)
                        bw = 40000 // k
                    else:
                        bw = 6000 + 100 * relays.index(relay)
                    latest[relay] = (end, bw + rng.randrange(-50, 50))
            lines = [str(file_time), "software=sbws", "====="]
            for relay in sorted(latest):
                end, bw = latest[relay]
                stamp = datetime.fromtimestamp(end, tz=timezone.utc)
                form = rng.randrange(3)
                when = (stamp.strftime("%Y-%m-%dT%H:%M:%S") if form == 0 else
                        "%d-%d-%dT%d:%d:%d" % stamp.timetuple()[:6] if form == 1
                        else str(end))
                lines.append("bw=%d nick=n%d node_id=$%s time=%s"
                             % (bw, relays.index(relay), relay, when))
            for bad in ("bw=12x node_id=$%s time=%d" % (pot[0], file_time),
                        "truncated entry line",
                        "bw=5 node_id=$ABAB time=%d" % file_time)[:hour % 3 + 1]:
                lines.insert(rng.randrange(3, len(lines) + 1), bad)
            name = "%s-%s.bw" % (datetime.fromtimestamp(file_time, tz=timezone.utc)
                                 .strftime("%Y-%m-%d-%H-%M-%S"), scanner)
            (directory / name).write_text("\n".join(lines) + "\n")
    relays_path = directory.parent / "pot.txt"
    relays_path.write_text("".join("$%s\n" % r for r in pot))
    return str(relays_path)


@pytest.mark.parametrize("value", ["0", "-39", "nan", "inf"])
@pytest.mark.parametrize("command", ["detect", "coincidence", "window-sweep"])
def test_unusable_duration_exits_2(command, value, tmp_path):
    bwdir = tmp_path / "bw"
    bwdir.mkdir()
    pot = write_archive(bwdir)
    argv = ["detect"] if command == "detect" else ["analyze", command, "--relays", pot]
    argv += [str(bwdir), "--out", str(tmp_path / "out"), "--duration", value]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad value on its own
        code = exc.code
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("command, window", [
    ("window-sweep", "nan"), ("window-sweep", "inf"), ("window-sweep", "30,nan"),
    ("coincidence", "%d,%d" % (T0 + 7200, T0 + 3600)),
    ("coincidence", "nan,%d" % T0), ("coincidence", "%d,nan" % T0),
])
def test_unusable_window_exits_2(command, window, tmp_path, capsys):
    bwdir = tmp_path / "bw"
    bwdir.mkdir()
    pot = write_archive(bwdir)
    argv = ["analyze", command, "--relays", pot, str(bwdir),
            "--out", str(tmp_path / "out"), "--window", window]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a bad value on its own
        code = exc.code
    assert code == EXIT_CONFIG
    assert "--window" in capsys.readouterr().err


class TestForensicsOutputsPinned:
    # sha256 of stdout and of every output file but manifest.json (which
    # holds wall-clock times and tmp paths) for analyze and detect on
    # write_archive. A refactor of parsing, thread inference, coincidence
    # or scoring must leave these unchanged; a change that moves them must
    # say why.
    COMMANDS = {
        "durations": ["analyze", "durations", "{bw}", "--iterations", "6",
                      "--seed", "3"],
        "coincidence": ["analyze", "coincidence", "{bw}", "--relays", "{pot}"],
        "window-sweep": ["analyze", "window-sweep", "{bw}", "--relays", "{pot}",
                         "--window", "3600", "--window", "7200"],
        "detect": ["detect", "{bw}"],
    }
    SHA256 = {
        "coincidence": {
            "stdout": "0a22e026e2f78b5db03a56e941b649b578de028ef552ecb5ce579bc15b1eddf0",
            "distribution.csv": "3e6be3e97efc64c236b43315a60e684ea9ab58f1fc11356e8a00d6e707d604d5",
        },
        "detect": {
            "stdout": "d2b53df4a9e5f9278d9de15a9bb0002ca40f0259b89b68a6cb341b633df77084",
            "probes.csv": "bd25e75b30864be9014073b256dfa4e19516fff25f2389c95f7ae6d6cd3e6603",
            "suspicion.json": "dea694c7c1f3b87d8b76a64d556b57b064e5007d611657622db21f37e082a0a2",
        },
        "durations": {
            "stdout": "8fd005ad1556877d80cd3540c8657b03dbf82e4e2768fe9c2fba951c5f2a52b4",
            "durations.json": "49c92a3d0ee9fd0567c947216fe5330dc5e65339078bfd06f363d362dba13fec",
        },
        "window-sweep": {
            "stdout": "8724a5c6525fc06e3890c9d5a133bc1209b05b4ce5250e5aea3e9c6416f64de2",
            "window_sweep.csv": "7a09c2f0c4b515675e982ef1d2c5808e8dde740bde95d098f62d9f8f1525fcb6",
        },
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_outputs_pinned(self, command, tmp_path, capsys, caplog):
        bwdir = tmp_path / "bw"
        bwdir.mkdir()
        pot = write_archive(bwdir)
        out = tmp_path / "out"
        argv = [arg.format(bw=bwdir, pot=pot) for arg in self.COMMANDS[command]]
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == EXIT_OK, err
        assert any("malformed entry" in r.message for r in caplog.records)
        digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
        for name in sorted(os.listdir(out)):
            if name != "manifest.json":
                digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digests == self.SHA256[command]


class TestReadme:
    README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")

    def blocks(self, lang):
        with open(self.README, "r", encoding="utf-8") as fh:
            return re.findall(r"```%s\n(.*?)```" % lang, fh.read(), re.S)

    def test_config_examples_build(self):
        blocks = self.blocks("json")
        assert len(blocks) == 2
        for block in blocks:
            # each distinct <40-hex...> placeholder stands for one relay
            text = re.sub(r"<40-hex[^>]*>", lambda m: fp("readme" + m.group()), block)
            build_sim_config(json.loads(text))

    def test_library_example(self, capsys):
        # the blocks run in order in one namespace, as a reader would
        namespace = {}
        for block in self.blocks("python"):
            exec(block, namespace)
        assert capsys.readouterr().out == "5.0\n()\nTrue\n"


class TestOutputPlumbing:
    def test_write_atomic_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "file.txt"
        _write_atomic(str(target), "payload")
        assert target.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]

    def test_write_atomic_overwrites(self, tmp_path):
        target = tmp_path / "file.txt"
        _write_atomic(str(target), "one")
        _write_atomic(str(target), b"two")
        assert target.read_bytes() == b"two"
