"""Discrete-event simulation of hosts, relays, user load, and attack policies.

The simulator owns a single logical timeline. Scanner threads are simulated
entities that pull targets from a shared per-round queue (work stealing);
each download is one event, so concurrent measurements see each other's
contention through the shared FlowState. Bandwidth allocation per host is
max-min fair: equal split among active flows with redistribution of any
share a flow cannot use, never exceeding capacity times efficiency.

Policy semantics on a detected measurement:
  honest           nothing changes, the measurement is one more flow
  drop_on_measure  the relay's own user flows pause for the duration
  cotormult_member every user flow on the cluster host pauses; measured
                   members split the whole host
  detormult_member the measurement is served by the shared dedicated server;
                   user flows keep running on the cluster host

A measurement the detector misses (false negative) is allocated exactly like
a user flow. False positives are modeled coarsely: once per consensus epoch
each host with adversarial relays may spuriously drop its user flows for
that epoch.
"""

import heapq
import math
import random
import statistics
from dataclasses import dataclass, field, replace
from typing import Optional, get_args

from . import units
from .core import (
    Cluster,
    ClusterTopology,
    ConfigError,
    ConsensusSnapshot,
    HostSpec,
    MeasurementRecord,
    RelaySpec,
    SimulationError,
    Topology,
    aggregate_consensus,
)
from .scanner import (
    MeasurementPlan,
    ScannerConfig,
    measurement_steps,
    plan_round,
    select_exit,
)

_EPS = 1e-9
# seconds per packet the detector inspects before it recognises a scanner
PER_PACKET_LATENCY = 0.0005


@dataclass(frozen=True)
class DetectorModel:
    mode: str = "ip_filter"
    detection_delay_packets: Optional[int] = None
    false_negative_rate: float = 0.0
    false_positive_rate: float = 0.0

    def __post_init__(self):
        if self.mode not in ("ip_filter", "parametric"):
            raise ConfigError("unknown detector mode %r" % (self.mode,))
        if self.detection_delay_packets is None:
            object.__setattr__(
                self, "detection_delay_packets",
                0 if self.mode == "ip_filter" else 5,
            )
        if self.detection_delay_packets < 0:
            raise ConfigError("detection delay must be >= 0")
        for rate in (self.false_negative_rate, self.false_positive_rate):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError("detector rates must be in [0, 1]")

    @property
    def detection_delay(self) -> float:
        return self.detection_delay_packets * PER_PACKET_LATENCY


@dataclass(frozen=True)
class SimConfig:
    topology: Topology
    scanners: tuple
    user_load: dict = field(default_factory=dict)
    detector: DetectorModel = field(default_factory=DetectorModel)
    duration: float = 3600.0
    seed: int = 0
    consensus_interval: float = 3600.0
    activation_times: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.consensus_interval < math.inf:
            raise ConfigError("consensus_interval must be finite and > 0, got %r"
                              % (self.consensus_interval,))
        if not math.isfinite(self.duration):
            raise ConfigError("duration must be finite, got %r" % (self.duration,))
        if self.duration < self.consensus_interval:
            raise ConfigError("duration must cover at least one consensus interval")
        ba_ids = [s.ba_id for s in self.scanners]
        if len(ba_ids) != len(set(ba_ids)):
            raise ConfigError("scanner ba_ids must be unique")
        for relay_id, load in self.user_load.items():
            if relay_id not in self.topology.relays:
                raise ConfigError("user_load for unknown relay %r" % (relay_id,))
            if load < 0:
                raise ConfigError("user_load for %s must be >= 0" % relay_id)
        for relay_id, when in self.activation_times.items():
            if relay_id not in self.topology.relays:
                raise ConfigError("activation time for unknown relay %r" % (relay_id,))
            if not math.isfinite(when):
                raise ConfigError("activation time for %s must be finite, got %r"
                                  % (relay_id, when))


# -- config documents ---------------------------------------------------------


def _expect(value, types, where):
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError("%s: expected %s, got %s" % (
            where, " or ".join(t.__name__ for t in types), type(value).__name__))
    return value


def _from_doc(cls, doc, where, parse, **values):
    """Build the dataclass cls from the config object doc.

    doc may carry cls's fields less those in values as keys. A field it
    leaves out takes its entry in values, else cls's own default. parse
    maps a key to a function (value, where) that builds the field, and null
    there means the key is absent; any other value must be of its field's
    annotated type, an int passing for a float. Each problem raises
    ConfigError naming where.
    """
    fields = cls.__dataclass_fields__
    kwargs = dict(values)
    for key, value in _expect(doc, (dict,), where).items():
        here = "%s.%s" % (where, key)
        if key not in fields or key in values:
            raise ConfigError("%s: unknown key %r" % (where, key))
        if key in parse:
            if value is not None:
                kwargs[key] = parse[key](value, here)
        else:
            ftype = fields[key].type
            kwargs[key] = _expect(value, (int, float) if ftype is float
                                  else get_args(ftype) or (ftype,), here)
    try:
        return cls(**kwargs)  # a TypeError names a missing required field
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: %s" % (where, exc))


def _objects(cls, parse):
    """Parser of a JSON array of cls objects into a tuple."""
    return lambda value, where: tuple(
        _from_doc(cls, doc, "%s[%d]" % (where, i), parse)
        for i, doc in enumerate(_expect(value, (list,), where))
    )


def _by_id(cls, id_field, parse):
    """Parser of a JSON array of cls objects into a dict keyed by id_field."""
    def build(value, where):
        specs = {}
        for i, spec in enumerate(_objects(cls, parse)(value, where)):
            if specs.setdefault(getattr(spec, id_field), spec) is not spec:
                raise ConfigError("%s[%d]: duplicate %s" % (where, i, id_field))
        return specs
    return build


def _per_relay(build):
    return lambda value, where: {
        relay_id: build(item, "%s[%r]" % (where, relay_id))
        for relay_id, item in _expect(value, (dict,), where).items()
    }


def _rate(value, where):
    try:
        return units.parse_rate(value)
    except (units.UnitError, TypeError) as exc:
        raise ConfigError("%s: %s" % (where, exc))


def _scanners(value, where):
    if not _expect(value, (list,), where):
        raise ConfigError("%s: at least one scanner is required" % where)
    scanners = []
    for i, doc in enumerate(value):
        here = "%s[%d]" % (where, i)
        doc = {"ba_id": "ba%d" % i, **_expect(doc, (dict,), here)}
        scanners.append(_from_doc(ScannerConfig, doc, here, {}))
    return tuple(scanners)


_TOPOLOGY_PARSE = {
    "relays": _by_id(RelaySpec, "relay_id", {"advertised_bw": _rate}),
    "hosts": _by_id(HostSpec, "host_id", {"capacity": _rate}),
    "clusters": lambda value, where: _from_doc(ClusterTopology, value, where, {
        "clusters": _objects(Cluster, {"members": lambda value, where: tuple(
            _expect(m, (str,), where) for m in _expect(value, (list,), where))}),
    }),
}

_SIM_PARSE = {
    "scanners": _scanners,
    "detector": lambda value, where: _from_doc(DetectorModel, value, where, {}),
    "user_load": _per_relay(_rate),
    "activation_times": _per_relay(lambda value, where: _expect(value, (int, float), where)),
}


def build_sim_config(doc) -> SimConfig:
    """Turn a parsed config document into a validated SimConfig.

    Its keys are the dataclasses' field names, the Topology ones at the top
    level; bandwidth values must carry unit suffixes.
    """
    doc = _expect(doc, (dict,), "config")
    topology = {k: v for k, v in doc.items() if k in _TOPOLOGY_PARSE}
    rest = {k: v for k, v in doc.items() if k not in _TOPOLOGY_PARSE}
    return _from_doc(SimConfig, rest, "config", _SIM_PARSE, topology=_from_doc(
        Topology, topology, "config", _TOPOLOGY_PARSE))


class FlowState:
    """Active flows plus the topology needed to allocate them.

    Allocation is solved per host: a flow's rate depends only on the flows
    and user loads of the host it sits on, so a download re-solves that one
    host and never the rest of the network.

    Each flow is also filed under every host it can sit on: its relay's
    host and, for a detormult_member, the dedicated server. A host's solve
    depends only on the flows filed under it, on which of their detect
    times have passed, and on whether the host is in fp_suppressed_hosts.
    So each solve is cached with the window [lo, hi) between the last
    detect time at or before its instant and the next one after it, and
    reused while now stays in that window and the false-positive flag is
    unchanged. Adding or removing a flow drops the entries of its hosts.
    fp_suppressed_hosts is a plain set that callers edit, so its flag is
    checked on every lookup.
    """

    def __init__(self, topology: Topology, user_load: dict):
        self.topology = topology
        self.user_load = dict(user_load)
        # (relay_id, ba_id) -> detect time; math.inf for a missed detection
        self.flows = {}
        self.fp_suppressed_hosts = set()
        # host_id -> {(relay_id, ba_id): detect time}, in flows order
        self._host_flows = {}
        # host_id -> {probe relay_id or None: (lo, hi, suppressed, fill)}
        self._solves = {}
        # host_id -> [(relay_id, demand)], in user_load order
        self._user_demands = {}
        for relay_id, load in self.user_load.items():
            if load <= 0:
                continue
            relay = topology.relays[relay_id]
            self._user_demands.setdefault(relay.host_id, []).append(
                (relay_id, min(load, relay.advertised_bw))
            )

    def _filed_hosts(self, relay_id: str) -> tuple:
        relay = self.topology.relays[relay_id]
        dedicated = self.topology.clusters.dedicated_server
        if relay.policy == "detormult_member" and dedicated != relay.host_id:
            return (relay.host_id, dedicated)
        return (relay.host_id,)

    def add_flow(self, relay_id: str, ba_id: str, detect_time: float):
        key = (relay_id, ba_id)
        if key in self.flows:
            raise SimulationError("duplicate measurement flow %s" % (key,))
        self.flows[key] = detect_time
        for host_id in self._filed_hosts(relay_id):
            self._host_flows.setdefault(host_id, {})[key] = detect_time
            self._solves.pop(host_id, None)

    def remove_flow(self, relay_id: str, ba_id: str):
        key = (relay_id, ba_id)
        del self.flows[key]
        for host_id in self._filed_hosts(relay_id):
            del self._host_flows[host_id][key]
            self._solves.pop(host_id, None)

    # -- allocation ---------------------------------------------------------

    def _flow_host(self, relay_id: str, detect_time: float, now: float) -> str:
        relay = self.topology.relays[relay_id]
        if relay.policy == "detormult_member" and now >= detect_time:
            return self.topology.clusters.dedicated_server
        return relay.host_id

    def _solve(self, host_id: str, now: float, probe=None) -> dict:
        """Max-min allocation of every active flow on one host, cached;
        callers must not mutate it.

        Measurement flows come first, in the order they were added, then the
        host's user flows. A detected drop_on_measure flow pauses its own
        relay's user flow, a detected cotormult_member flow pauses every
        cotormult_member user flow on the host, and a false-positive epoch
        pauses all of them. Conserves capacity * efficiency.

        probe, a relay id, adds a hypothetical measurement of that relay,
        detected at now and keyed ("m", probe, "__probe__"), after the
        host's own measurement flows.
        """
        suppressed = host_id in self.fp_suppressed_hosts
        solves = self._solves.setdefault(host_id, {})
        hit = solves.get(probe)
        if hit is not None and hit[0] <= now < hit[1] and hit[2] == suppressed:
            return hit[3]
        filed = self._host_flows.get(host_id, {})
        lo, hi = -math.inf, math.inf
        for detect_time in filed.values():
            if detect_time <= now:
                lo = max(lo, detect_time)
            else:
                hi = min(hi, detect_time)
        flows = list(filed.items())
        if probe is not None:
            flows.append(((probe, "__probe__"), now))
        relays = self.topology.relays
        demands = []
        paused = set()
        pause_members = False
        for key, detect_time in flows:
            if self._flow_host(key[0], detect_time, now) != host_id:
                continue
            relay = relays[key[0]]
            demands.append((("m",) + key, relay.advertised_bw))
            if now >= detect_time:
                if relay.policy == "drop_on_measure":
                    paused.add(relay.relay_id)
                elif relay.policy == "cotormult_member":
                    pause_members = True
        if not suppressed:
            for relay_id, demand in self._user_demands.get(host_id, ()):
                if relay_id in paused or (
                        pause_members
                        and relays[relay_id].policy == "cotormult_member"):
                    continue
                demands.append((("u", relay_id), demand))
        pool = self.topology.hosts[host_id].usable_capacity
        fill = _max_min_fill(pool, demands)
        assert sum(fill.values()) <= pool + 1e-6, (
            "allocation exceeds capacity on host %s" % host_id
        )
        solves[probe] = (lo, hi, suppressed, fill)
        return fill

    def allocations(self, now: float) -> dict:
        """Max-min allocation of every active flow, keyed by flow id.

        Measurement flows are keyed ("m", relay_id, ba_id), user flows
        ("u", relay_id): _solve over every host with demand.
        """
        hosts = dict.fromkeys(
            self._flow_host(relay_id, detect_time, now)
            for (relay_id, _ba_id), detect_time in self.flows.items()
        )
        hosts.update(dict.fromkeys(self._user_demands))
        alloc = {}
        for host_id in hosts:
            alloc.update(self._solve(host_id, now))
        return alloc

    def flow_bandwidth(self, relay_id: str, ba_id: str, now: float) -> float:
        detect_time = self.flows[(relay_id, ba_id)]
        fill = self._solve(self._flow_host(relay_id, detect_time, now), now)
        return fill[("m", relay_id, ba_id)]


def _max_min_fill(pool: float, demands: list) -> dict:
    """Progressive filling: equal split, redistribute what a flow can't use."""
    alloc = {key: 0.0 for key, _ in demands}
    pending = {key: demand for key, demand in demands if demand > 0}
    remaining = float(pool)
    while pending and remaining > _EPS:
        share = remaining / len(pending)
        bounded = [key for key, demand in pending.items() if demand <= share]
        if not bounded:
            for key in pending:
                alloc[key] = share
            return alloc
        for key in bounded:
            alloc[key] = pending[key]
            remaining -= pending.pop(key)
    return alloc


def available_bandwidth(state: FlowState, relay_id: str, now: float) -> float:
    """Bytes/second a measurement of relay_id sees at this instant.

    If the relay is under an active measurement, this is that flow's current
    allocation. Otherwise the answer is hypothetical: what a newly started,
    already-detected measurement would be allocated right now.
    """
    relay = state.topology.relays.get(relay_id)
    if relay is None:
        raise ConfigError("unknown relay %r" % (relay_id,))
    active = [key for key in state._host_flows.get(relay.host_id, ())
              if key[0] == relay_id]
    if active:
        return max(state.flow_bandwidth(*key, now) for key in active)
    fill = state._solve(state._flow_host(relay_id, now, now), now, probe=relay_id)
    return fill[("m", relay_id, "__probe__")]


@dataclass(frozen=True)
class SimResult:
    records: tuple
    consensus: tuple
    baseline_bw: float


# Event priorities at equal timestamps: finish downloads first, then draw
# the epoch's false positives, then start the next round.
_PRIO_STEP = 0
_PRIO_CONSENSUS = 1
_PRIO_ROUND = 2


class _ThreadCtx:
    __slots__ = ("scanner", "thread_id", "gen", "plan", "start", "now")

    def __init__(self, scanner: ScannerConfig, thread_id: int):
        self.scanner = scanner
        self.thread_id = thread_id
        self.gen = None
        self.plan = None
        self.start = 0.0
        self.now = 0.0


class _Loop:
    """The one event loop: scanner threads, rounds, and false-positive epochs.

    An event is (time, prio, seq, handler, args); run calls
    handler(time, *args). seed drives every random draw of the loop (round
    plans, detector misses, false positives).
    """

    def __init__(self, cfg: SimConfig, seed):
        self.cfg = cfg
        self.seed = seed
        self.state = FlowState(cfg.topology, cfg.user_load)
        self.records = []
        self.events = []
        self.seq = 0
        self.queues = {s.ba_id: [] for s in cfg.scanners}
        self.threads = {
            s.ba_id: [_ThreadCtx(s, t) for t in range(s.threads)]
            for s in cfg.scanners
        }
        self.adversarial_hosts = sorted({
            r.host_id for r in cfg.topology.relays.values()
            if r.policy != "honest"
        })
        self.rng_detect = random.Random("%s/detect" % (seed,))
        self.rng_fp = random.Random("%s/fp" % (seed,))

    def push(self, time, prio, handler, *args):
        heapq.heappush(self.events, (time, prio, self.seq, handler, args))
        self.seq += 1

    def run(self, until: float):
        """Dispatch events in time order; drop the first one past until."""
        while self.events:
            time, _prio, _seq, handler, args = heapq.heappop(self.events)
            if time > until:
                break
            handler(time, *args)

    # -- scanner thread driving --------------------------------------------

    def _start_next(self, ctx, now):
        ba_id = ctx.scanner.ba_id
        queue = self.queues[ba_id]
        # a target may still be mid-measurement from the previous round;
        # leave it queued for whichever thread frees up after it
        idx = next(
            (i for i, p in enumerate(queue)
             if (p.target, ba_id) not in self.state.flows),
            None,
        )
        if idx is None:
            return
        plan = queue.pop(idx)
        detect_time = now + self.cfg.detector.detection_delay
        if (self.cfg.topology.relays[plan.target].policy != "honest"
                and self.rng_detect.random() < self.cfg.detector.false_negative_rate):
            detect_time = math.inf
        self.state.add_flow(plan.target, ba_id, detect_time)
        ctx.plan = plan
        ctx.start = now
        ctx.now = now
        ctx.gen = measurement_steps()
        self._issue_download(ctx, ctx.gen.send(None))

    def _issue_download(self, ctx, step):
        _phase, size = step
        rate = min(
            self.state.flow_bandwidth(ctx.plan.target, ctx.scanner.ba_id, ctx.now),
            available_bandwidth(self.state, ctx.plan.exit, ctx.now),
        )
        if rate <= 0:
            self.push(ctx.now, _PRIO_STEP, self._on_step, ctx, None)
            return
        duration = size / rate
        self.push(ctx.now + duration, _PRIO_STEP, self._on_step, ctx, duration)

    def _on_step(self, now, ctx, duration):
        ctx.now = now if duration is not None else ctx.now + _EPS
        try:
            step = ctx.gen.send(duration)
        except StopIteration as stop:
            self._complete(ctx, stop.value)
            self._start_next(ctx, ctx.now)
            return
        self._issue_download(ctx, step)

    def _complete(self, ctx, outcome):
        ba_id = ctx.scanner.ba_id
        self.state.remove_flow(ctx.plan.target, ba_id)
        self.records.append(MeasurementRecord(
            relay_id=ctx.plan.target,
            ba_id=ba_id,
            thread_id=ctx.thread_id,
            start_time=ctx.start,
            end_time=ctx.now,
            measured_bw=outcome["measured_bw"],
            bytes_total=outcome["bytes_total"],
            downloads=outcome["downloads"],
            ok=outcome["ok"],
        ))
        ctx.gen = None
        ctx.plan = None

    # -- rounds and false-positive epochs ------------------------------------

    def _on_round(self, now, scanner, round_idx):
        activation = self.cfg.activation_times
        plans = plan_round(
            scanner,
            [r for r in self.cfg.topology.relays.values()
             if activation.get(r.relay_id, 0.0) <= now],
            "%s/%s/round%d" % (self.seed, scanner.ba_id, round_idx),
        )
        self.queues[scanner.ba_id] = list(plans)  # leftovers of the old round vanish
        for ctx in self.threads[scanner.ba_id]:
            if ctx.plan is None:
                self._start_next(ctx, now)

    def _resample_false_positives(self, _now):
        rate = self.cfg.detector.false_positive_rate
        self.state.fp_suppressed_hosts.clear()
        if rate <= 0:
            return
        for host_id in self.adversarial_hosts:
            if self.rng_fp.random() < rate:
                self.state.fp_suppressed_hosts.add(host_id)


def run_simulation(cfg: SimConfig) -> SimResult:
    """Run the event loop over the configured duration.

    Deterministic for a fixed (config, seed): same records, same consensus.
    Raises SimulationError when there is nothing to measure.
    """
    if not cfg.scanners:
        raise SimulationError("nothing to measure")
    loop = _Loop(cfg, cfg.seed)
    loop._resample_false_positives(0.0)

    for scanner in cfg.scanners:
        n_rounds = max(1, int(cfg.duration // scanner.round_budget))
        for k in range(n_rounds):
            loop.push(k * scanner.round_budget, _PRIO_ROUND, loop._on_round,
                      scanner, k)
    n_epochs = int(cfg.duration // cfg.consensus_interval)
    for e in range(1, n_epochs + 1):
        loop.push(e * cfg.consensus_interval, _PRIO_CONSENSUS,
                  loop._resample_false_positives)
    loop.run(cfg.duration)

    if not any(rec.ok for rec in loop.records):
        raise SimulationError(
            "no successful measurements; check exit qualification and bandwidths"
        )
    records = tuple(loop.records)
    return SimResult(records, _fold_consensus(records, cfg),
                     _baseline_bw(records, cfg.topology))


def _fold_consensus(records, cfg: SimConfig) -> tuple:
    """One snapshot per consensus epoch: epoch e combines, over the prior
    snapshot, each scanner's mean per relay of its ok records ending in
    ((e-1)*interval, e*interval]; an epoch without votes re-emits the prior."""
    snapshots = []
    prior = None
    for epoch in range(1, int(cfg.duration // cfg.consensus_interval) + 1):
        lo = (epoch - 1) * cfg.consensus_interval
        hi = epoch * cfg.consensus_interval
        votes = []
        for scanner in cfg.scanners:
            sums, counts = {}, {}
            for rec in records:
                if rec.ba_id != scanner.ba_id or not rec.ok:
                    continue
                if not lo < rec.end_time <= hi:
                    continue
                sums[rec.relay_id] = sums.get(rec.relay_id, 0.0) + rec.measured_bw
                counts[rec.relay_id] = counts.get(rec.relay_id, 0) + 1
            if sums:
                votes.append(
                    (scanner.ba_id, {r: sums[r] / counts[r] for r in sums})
                )
        if votes:
            prior = aggregate_consensus(votes, prior=prior, epoch=epoch)
        else:
            weights = dict(prior.weights) if prior is not None else {}
            prior = ConsensusSnapshot(epoch=epoch, weights=weights)
        snapshots.append(prior)
    return tuple(snapshots)


def _baseline_bw(records, topology: Topology) -> float:
    """Mean measured bandwidth of the honest relays on hosts of the same
    (kind, capacity) as an attacker's host, else of every honest relay."""
    def host_class(relay):
        host = topology.hosts[relay.host_id]
        return host.kind, host.capacity

    relays = topology.relays.values()
    attacker_classes = {host_class(r) for r in relays if r.policy != "honest"}
    honest = [r for r in relays if r.policy == "honest"]
    eligible = ({r.relay_id for r in honest if host_class(r) in attacker_classes}
                or {r.relay_id for r in honest})
    values = [
        rec.measured_bw for rec in records
        if rec.ok and rec.relay_id in eligible
    ]
    if not values:
        return 0.0
    return sum(values) / len(values)


def inflation_factor(result: SimResult, attacker_relays) -> float:
    """Final consensus weight of the attacker set over the honest baseline."""
    attacker_relays = set(attacker_relays)
    if not attacker_relays:
        return 0.0
    if result.baseline_bw <= 0:
        raise ValueError("baseline bandwidth is zero, nothing to compare against")
    if not result.consensus:
        raise ValueError("no consensus snapshot in result")
    final = result.consensus[-1]
    total = sum(final.weights.get(r, 0.0) for r in sorted(attacker_relays))
    return total / result.baseline_bw


def _attacker_groups(topology: Topology) -> dict:
    groups = {}
    for relay in topology.relays.values():
        if relay.policy == "honest":
            continue
        cluster = topology.clusters.cluster_of(relay.relay_id)
        key = relay.family_id or (cluster.cluster_id if cluster else relay.policy)
        groups.setdefault(key, []).append(relay.relay_id)
    return {key: sorted(ids) for key, ids in sorted(groups.items())}


def summarize(cfg: SimConfig, result: SimResult) -> dict:
    """The dict simulate writes as summary.json: attackers grouped by family,
    else cluster, else policy, with the inflation_factor of each group and of
    all; without attackers, the honest non-exit mean weight over the baseline."""
    final = result.consensus[-1].weights if result.consensus else {}
    groups = _attacker_groups(cfg.topology)
    per_group = {}
    all_attackers = []
    for key, ids in groups.items():
        all_attackers.extend(ids)
        per_group[key] = {
            "relays": ids,
            "total_weight": sum(final.get(r, 0.0) for r in ids),
            "inflation": inflation_factor(result, ids),
        }
    if all_attackers:
        overall = inflation_factor(result, all_attackers)
    else:
        # no attackers configured: report the honest weight-to-baseline ratio,
        # which should sit at 1 for a well-calibrated scenario
        honest = [
            final[r] for r, spec in cfg.topology.relays.items()
            if spec.policy == "honest" and r in final and spec.role != "exit"
        ]
        overall = (
            statistics.fmean(honest) / result.baseline_bw
            if honest and result.baseline_bw > 0 else 0.0
        )
    ok_records = sum(1 for r in result.records if r.ok)
    return {
        "seed": cfg.seed,
        "duration": cfg.duration,
        "baseline_bw": result.baseline_bw,
        "inflation": overall,
        "groups": per_group,
        "records_total": len(result.records),
        "records_ok": ok_records,
        "consensus_epochs": len(result.consensus),
    }


def run_probe(cfg: SimConfig, relay_ids, seed, start_time: float = 0.0) -> tuple:
    """Measure the given relays simultaneously, isolated from any round.

    One synthetic scanner starts every target at the same instant, so the
    targets contend exactly as a co-measurement would. The scanner runs one
    thread per target, so a probe takes at most 8 targets (the scanner's
    thread limit) and raises ValueError beyond that. Used by the defense
    workflow to force co-probes. seed drives both the exit choice and the
    detector misses. Returns one record per relay.
    """
    relay_ids = list(relay_ids)
    if not relay_ids:
        return ()
    probe_seed = "%s/probe" % (seed,)
    rng = random.Random(probe_seed)
    exits = sorted(
        (r for r in cfg.topology.relays.values() if r.role == "exit"),
        key=lambda r: r.relay_id,
    )
    scancfg = ScannerConfig(ba_id="probe", threads=len(relay_ids))
    plans = []
    for relay_id in relay_ids:
        exit_relay = select_exit(exits, cfg.topology.relays[relay_id], rng)
        if exit_relay is None:
            raise SimulationError("no qualifying exit for probe of %s" % relay_id)
        plans.append(MeasurementPlan(target=relay_id, exit=exit_relay.relay_id))

    loop = _Loop(replace(cfg, scanners=(scancfg,)), probe_seed)
    loop.queues["probe"] = plans
    for ctx in loop.threads["probe"]:
        loop._start_next(ctx, start_time)
    loop.run(math.inf)
    return tuple(loop.records)
