"""Seeded input generators for the benchmark workloads.

Every generator writes plain user-facing inputs (scenario JSON with
unit-suffixed bandwidth strings, a bandwidth-file directory and relay list,
a samples CSV) into a work directory and returns a small JSON-able "truth"
dict the output checks compare against. The program under test only ever
sees the files; the seed stays on the benchmark side. The same seed gives
byte-identical inputs.
"""

import hashlib
import json
import math
import os
import random
from datetime import datetime, timezone

# Archive timeline: hour-aligned unix time, so file names and the hourly
# publication grid line up the way a real archive's do.
ARCHIVE_T0 = 1_650_002_400
ARCHIVE_SCANNERS = ("sbws-a", "sbws-b")
ARCHIVE_THREADS = 4
ARCHIVE_RELAYS = 1100
ARCHIVE_POT = 8
ARCHIVE_WARMUP_HOURS = 3
ARCHIVE_FILE_HOURS = 8


def fingerprint(seed, label):
    return hashlib.sha1(("%s/%s" % (seed, label)).encode()).hexdigest().upper()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _host(host_id, capacity, efficiency=1.0, kind="relay_host"):
    return {"host_id": host_id, "capacity": capacity, "kind": kind,
            "efficiency": efficiency}


def _relay(relay_id, host_id, bw, role="middle", policy="honest", family=None):
    doc = {"relay_id": relay_id, "host_id": host_id, "advertised_bw": bw,
           "role": role, "policy": policy}
    if family:
        doc["family_id"] = family
    return doc


def _exits(seed, doc, n):
    for i in range(n):
        host_id = "exit-%02d" % i
        doc["hosts"].append(_host(host_id, "400 MB"))
        doc["relays"].append(_relay(fingerprint(seed, "exit%d" % i), host_id,
                                    "200 MB", role="exit"))


# -- sim-farm -----------------------------------------------------------------


def sim_farm(seed, work):
    """160 honest middles, each alone on a loaded 50 MB/s host."""
    doc = {"seed": seed, "duration": 3600, "consensus_interval": 3600,
           "hosts": [], "relays": [], "user_load": {},
           "scanners": [{"ba_id": "ba%d" % k, "threads": 4,
                         "round_budget": 3600} for k in range(2)],
           "detector": {"mode": "ip_filter"}}
    for i in range(160):
        host_id = "honest-%03d" % i
        relay_id = fingerprint(seed, "middle%d" % i)
        doc["hosts"].append(_host(host_id, "50 MB"))
        doc["relays"].append(_relay(relay_id, host_id, "25 MB"))
        doc["user_load"][relay_id] = "20 MB"
    _exits(seed, doc, 4)
    _write(os.path.join(work, "scenario.json"), json.dumps(doc, indent=1))
    return {"scenario": "scenario.json"}


# -- attack-defense -----------------------------------------------------------


def attack_defense(seed, work):
    """Two loaded CoTorMult clusters among 40 idle honest middles, scanned
    multi-thread, so each allocation solves only a few small hosts."""
    doc = {"seed": seed, "duration": 6 * 3600, "consensus_interval": 3600,
           "hosts": [], "relays": [], "user_load": {},
           "scanners": [{"ba_id": "ba%d" % k, "threads": 4,
                         "round_budget": 900} for k in range(2)],
           "detector": {"mode": "parametric", "false_negative_rate": 0.05,
                        "false_positive_rate": 0.02},
           "clusters": {"clusters": []}}
    clusters = {}
    for c in "ab":
        host_id = "pot-%s" % c
        doc["hosts"].append(_host(host_id, "50 MB", efficiency=0.95))
        members = []
        for i in range(5):
            relay_id = fingerprint(seed, "pot%s/member%d" % (c, i))
            doc["relays"].append(_relay(relay_id, host_id, "50 MB",
                                        policy="cotormult_member",
                                        family=host_id))
            doc["user_load"][relay_id] = "20 MB"
            members.append(relay_id)
        doc["clusters"]["clusters"].append(
            {"cluster_id": host_id, "host_id": host_id, "members": members})
        clusters[host_id] = members
    for i in range(40):
        host_id = "honest-%02d" % i
        relay_id = fingerprint(seed, "middle%d" % i)
        doc["hosts"].append(_host(host_id, "50 MB"))
        doc["relays"].append(_relay(relay_id, host_id, "25 MB"))
    _exits(seed, doc, 4)
    _write(os.path.join(work, "scenario.json"), json.dumps(doc, indent=1))
    return {"scenario": "scenario.json", "clusters": clusters}


# -- forensics-archive --------------------------------------------------------


def _iso(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def _scan(rng, relays, pot, t_end):
    """One scanner's measurements: (relay, start, end) until t_end.

    Threads pull from a shuffled queue. Each round a few pot members sit
    next to each other in the queue, as relays added together share a
    priority, so parallel threads co-measure them; the rest of the pot is
    scattered and measured alone.
    """
    queue = []
    free_at = [ARCHIVE_T0 + rng.uniform(0, 30) for _ in range(ARCHIVE_THREADS)]
    out = []
    while min(free_at) < t_end:
        if not queue:
            queue = [r for r in relays if r not in pot]
            rng.shuffle(queue)
            members = sorted(pot)
            rng.shuffle(members)
            burst = rng.randrange(2, 4)
            for relay in members[burst:]:
                queue.insert(rng.randrange(len(queue) + 1), relay)
            at = rng.randrange(len(queue) + 1)
            queue[at:at] = members[:burst]
        thread = min(range(ARCHIVE_THREADS), key=free_at.__getitem__)
        start = free_at[thread]
        end = start + rng.uniform(28.0, 50.0)
        out.append((queue.pop(0), start, end))
        free_at[thread] = end + rng.uniform(0.0, 3.0)
    return out


def forensics_archive(seed, work):
    """Hourly bandwidth files from two scanners with a planted capacity pot.

    Each file holds the latest measurement of every relay seen so far, so
    entries of relays not re-measured repeat from file to file, exactly as
    in published archives. A few malformed lines per file must be skipped.
    Pot members split one capacity pot while co-measured.
    """
    rng = random.Random("forensics/%s" % seed)
    relays = [fingerprint(seed, "relay%d" % i) for i in range(ARCHIVE_RELAYS)]
    pot = relays[:ARCHIVE_POT]
    capacity = {r: int(rng.lognormvariate(math.log(6000), 0.8)) + 50
                for r in relays}
    pot_capacity = 40000
    nick = {r: "relay%s" % r[:8].lower() for r in relays}
    ed_key = {r: hashlib.sha256(r.encode()).hexdigest()[:43] for r in relays}

    hours = ARCHIVE_WARMUP_HOURS + ARCHIVE_FILE_HOURS
    t_end = ARCHIVE_T0 + hours * 3600
    scans = {ba: _scan(rng, relays, set(pot), t_end) for ba in ARCHIVE_SCANNERS}

    pot_runs = [(s, e) for ms in scans.values() for r, s, e in ms if r in pot]

    def measured_bw(relay, start, end):
        if relay not in pot:
            return max(1, int(capacity[relay] * rng.uniform(0.95, 1.05)))
        k = sum(1 for s, e in pot_runs if s < end and start < e)  # includes self
        return max(1, int(pot_capacity / k * rng.uniform(0.95, 1.05)))

    bwdir = os.path.join(work, "bwfiles")
    os.makedirs(bwdir)
    truth_files = {}
    for ba, measurements in scans.items():
        latest = {}
        mi = 0
        for h in range(ARCHIVE_WARMUP_HOURS + 1, hours + 1):
            file_time = ARCHIVE_T0 + h * 3600
            while mi < len(measurements) and measurements[mi][2] <= file_time:
                relay, start, end = measurements[mi]
                latest[relay] = (int(end), measured_bw(relay, start, end))
                mi += 1
            lines = [str(file_time), "version=1.4.0", "software=sbws",
                     "software_version=1.1.0",
                     "file_created=%s" % _iso(file_time),
                     "latest_bandwidth=%s" % _iso(file_time), "====="]
            for relay in sorted(latest):
                end, bw = latest[relay]
                lines.append(
                    "bw=%d error_circ=0 error_stream=%d master_key_ed25519=%s "
                    "nick=%s node_id=$%s success=%d time=%s"
                    % (bw, rng.randrange(3), ed_key[relay], nick[relay], relay,
                       rng.randrange(2, 6), _iso(end)))
            bad = [
                "bw=%sx node_id=$%s time=%s" % (rng.randrange(1000),
                                                 relays[rng.randrange(len(relays))],
                                                 _iso(file_time)),
                "node_id=$%s time=%s" % (relays[rng.randrange(len(relays))],
                                         _iso(file_time)),
                "bw=10 node_id=$%s time=%s" % ("AB" * 7, _iso(file_time)),
                "truncated entry line",
            ]
            n_bad = rng.randrange(2, 5)
            for line in bad[:n_bad]:
                lines.insert(rng.randrange(7, len(lines) + 1), line)
            name = "%s-%s.bw" % (
                datetime.fromtimestamp(file_time, tz=timezone.utc)
                .strftime("%Y-%m-%d-%H-%M-%S"), ba)
            _write(os.path.join(bwdir, name), "\n".join(lines) + "\n")
            truth_files[os.path.splitext(name)[0]] = {
                "entries": len(latest),
                "malformed": n_bad,
                "pot_ends": sorted(latest[r][0] for r in pot if r in latest),
            }
    _write(os.path.join(work, "relays.txt"),
           "".join("$%s\n" % r for r in pot))
    return {"bwdir": "bwfiles", "relays": "relays.txt", "pot": sorted(pot),
            "files": truth_files}


# -- estimate-fit -------------------------------------------------------------

# The paper's fitted coefficients, which the package ships today. They are
# restated here so the samples stay the same when the package ships new ones.
PAPER_CURVE = (0.75895138, 1.44995314, 0.96837148, 0.03714758, 0.07672455)


def _curve(x):
    a, scale, exponent, quad, offset = PAPER_CURVE
    return a * (scale * x) ** exponent - (quad * x) ** 2 - offset


def estimate_fit(seed, work):
    """120 samples of the paper's curve with seeded Gaussian noise."""
    rng = random.Random("estimate/%s" % seed)
    samples = [(x, _curve(x) + rng.gauss(0.0, 0.5))
               for x in range(1, 121)]
    _write(os.path.join(work, "samples.csv"),
           "x,y\n" + "".join("%d,%r\n" % s for s in samples))
    return {"samples": "samples.csv",
            "percents": [round(rng.uniform(1.0, 100.0), 2) for _ in range(12)],
            "xs": [rng.randrange(1, 121) for _ in range(12)]}


GENERATORS = {
    "sim-farm": sim_farm,
    "attack-defense": attack_defense,
    "forensics-archive": forensics_archive,
    "estimate-fit": estimate_fit,
}
