"""Discrete-event simulation of hosts, relays, user load, and attack policies.

The simulator owns a single logical timeline, the event time. Scanner threads
are simulated entities that pull targets from a shared per-round queue (work
stealing); each download is one event, so concurrent measurements see each
other's contention through the shared FlowState. A download's rate is fixed
at its start: the lesser of its flow's allocation and its exit's cap, the
exit's advertised bandwidth or its host's usable capacity if lower. The exit
cap is fixed for the run, so a download solves only its own flow's host, and
no load on the exit's host slows it. A thread reads that rate again only
when its host's solve changed since its last read, and runs from a plan of
its remaining downloads at the rate it read. Bandwidth allocation per host is
max-min fair: equal split among active flows with redistribution of any
share a flow cannot use, never exceeding capacity times efficiency.

Policy semantics on a detected measurement:
  honest           nothing changes, the measurement is one more flow; the
                   loop never marks it detected
  drop_on_measure  the relay's own user flows pause for the duration
  cotormult_member every user flow on the cluster host pauses; measured
                   members split the whole host
  detormult_member the measurement is served by the shared dedicated server;
                   user flows keep running on the cluster host

A measurement the detector misses (false negative) is allocated exactly like
a user flow. False positives are modeled coarsely: once per consensus epoch
each host with adversarial relays may spuriously drop its user flows for
that epoch. Detections and epochs are loop events like downloads, and the
events at one instant run in a fixed order: detections, then finished
downloads, epochs and rounds; events of one kind at one instant run in the
order they were scheduled.
"""

import functools
import heapq
import math
import random
import statistics
from bisect import bisect_left
from collections import deque
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
    exit_candidates,
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
            if not 0 <= load < math.inf:
                raise ConfigError("user_load for %s must be finite and >= 0, got %r"
                                  % (relay_id, load))
        for relay_id, when in self.activation_times.items():
            if relay_id not in self.topology.relays:
                raise ConfigError("activation time for unknown relay %r" % (relay_id,))
            if not math.isfinite(when):
                raise ConfigError("activation time for %s must be finite, got %r"
                                  % (relay_id, when))


# -- config documents ---------------------------------------------------------


def _expect(value, types, where, key=None):
    """value, if of one of types (a bool passing for no int); else raise
    ConfigError naming where, or where.key given key."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError("%s: expected %s, got %s" % (
            where if key is None else "%s.%s" % (where, key),
            " or ".join(t.__name__ for t in types), type(value).__name__))
    return value


@functools.cache
def _field_types(cls) -> dict:
    """cls's field name -> its annotated types, an int passing for a float."""
    return {name: (int, float) if f.type is float else get_args(f.type) or (f.type,)
            for name, f in cls.__dataclass_fields__.items()}


def _from_doc(cls, doc, where, parse, **values):
    """Build the dataclass cls from the config object doc.

    doc may carry cls's fields less those in values as keys. A field it
    leaves out takes its entry in values, else cls's own default. parse
    maps a key to a function (value, where) that builds the field, and null
    there means the key is absent; any other value must be of its field's
    annotated type, an int passing for a float. Each problem raises
    ConfigError naming where.
    """
    types = _field_types(cls)
    kwargs = dict(values)
    for key, value in _expect(doc, (dict,), where).items():
        if key not in types or key in values:
            raise ConfigError("%s: unknown key %r" % (where, key))
        if key in parse:
            if value is not None:
                kwargs[key] = parse[key](value, "%s.%s" % (where, key))
        else:
            kwargs[key] = _expect(value, types[key], where, key)
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
    host and never the rest of the network. An exit carries no flow; its
    cap in exit_caps bounds every download through it.

    The state has no clock: the event loop reports each arrival, departure,
    detection and false-positive epoch as it happens, and a host's solve is
    cached until one of them touches that host, which empties and drops
    it; flow_bandwidth reads the host kept for the flow, then its solve.
    The loop detects only flows of relays whose policy reacts, so an honest
    flow's detected flag stays unset.
    """

    def __init__(self, topology: Topology, user_load: dict):
        self.topology = topology
        self.user_load = dict(user_load)
        # (relay_id, ba_id) -> detected, in arrival order on each host
        self.flows = {}
        self.fp_suppressed_hosts = frozenset()
        # host_id -> {(relay_id, ba_id): detected}, in arrival order
        self._host_flows = {}
        # (relay_id, ba_id) -> the host the flow sits on
        self._flow_host = {}
        # host_id -> max-min fill of its flows
        self._solves = {}
        # exit relay_id -> its advertised bandwidth, capped by its own host
        self.exit_caps = {
            r.relay_id: min(r.advertised_bw,
                            topology.hosts[r.host_id].usable_capacity)
            for r in topology.relays.values() if r.role == "exit"
        }
        # host_id -> [(relay_id, demand)], in user_load order
        self._user_demands = {}
        for relay_id, load in self.user_load.items():
            if load <= 0:
                continue
            relay = topology.relays[relay_id]
            self._user_demands.setdefault(relay.host_id, []).append(
                (relay_id, min(load, relay.advertised_bw))
            )

    def _host(self, relay_id: str, detected: bool) -> str:
        relay = self.topology.relays[relay_id]
        if detected and relay.policy == "detormult_member":
            return self.topology.clusters.dedicated_server
        return relay.host_id

    def add_flow(self, relay_id: str, ba_id: str, detected: bool):
        key = (relay_id, ba_id)
        if key in self.flows:
            raise SimulationError("duplicate measurement flow %s" % (key,))
        self._file(key, detected)

    def _file(self, key, detected: bool):
        self.flows[key] = detected
        host_id = self._flow_host[key] = self._host(key[0], detected)
        self._host_flows.setdefault(host_id, {})[key] = detected
        self._drop(host_id)

    def remove_flow(self, relay_id: str, ba_id: str):
        key = (relay_id, ba_id)
        del self.flows[key]
        host_id = self._flow_host.pop(key)
        del self._host_flows[host_id][key]
        self._drop(host_id)

    def detect(self, relay_id: str, ba_id: str):
        """The detector recognises the flow from now on. A flow that moves to
        the dedicated server arrives there last; any other keeps its place."""
        key = (relay_id, ba_id)
        if key not in self.flows:
            raise SimulationError("detection of absent measurement flow %s" % (key,))
        if self._host(relay_id, True) != self._flow_host[key]:
            self.remove_flow(relay_id, ba_id)
        self._file(key, True)

    def set_false_positives(self, host_ids):
        """Begin a false-positive epoch: exactly host_ids pause user flows."""
        host_ids = frozenset(host_ids)
        for host_id in host_ids ^ self.fp_suppressed_hosts:
            self._drop(host_id)
        self.fp_suppressed_hosts = host_ids

    # -- allocation ---------------------------------------------------------

    def _drop(self, host_id: str):
        self._solves.pop(host_id, {}).clear()

    def _solve(self, host_id: str) -> dict:
        """Max-min allocation of every active flow on one host, cached;
        callers must not mutate it.

        Measurement flows come first, in the order they arrived, then the
        host's user flows. A detected drop_on_measure flow pauses its own
        relay's user flow, a detected cotormult_member flow pauses every
        cotormult_member user flow on the host, and a false-positive epoch
        pauses all of them. Conserves capacity * efficiency.
        """
        fill = self._solves.get(host_id)
        if fill is not None:
            return fill
        relays = self.topology.relays
        demands = []
        paused = set()
        pause_members = False
        for key, detected in self._host_flows.get(host_id, {}).items():
            relay = relays[key[0]]
            demands.append((("m",) + key, relay.advertised_bw))
            if detected:
                if relay.policy == "drop_on_measure":
                    paused.add(relay.relay_id)
                elif relay.policy == "cotormult_member":
                    pause_members = True
        if host_id not in self.fp_suppressed_hosts:
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
        self._solves[host_id] = fill
        return fill

    def allocations(self) -> dict:
        """Max-min allocation of every active flow, keyed by flow id.

        Measurement flows are keyed ("m", relay_id, ba_id), user flows
        ("u", relay_id): _solve over every host with demand.
        """
        alloc = {}
        for host_id in {**self._host_flows, **self._user_demands}:
            alloc.update(self._solve(host_id))
        return alloc

    def flow_bandwidth(self, relay_id: str, ba_id: str) -> float:
        host_id = self._flow_host[relay_id, ba_id]
        # the fill of a host with a flow on it is never empty
        fill = self._solves.get(host_id) or self._solve(host_id)
        return fill["m", relay_id, ba_id]

    def flow_rate(self, relay_id: str, ba_id: str) -> tuple:
        """flow_bandwidth, and the solve it came from: non-empty as long as
        the rate holds, since anything that may change it empties the solve."""
        rate = self.flow_bandwidth(relay_id, ba_id)
        return rate, self._solves.get(self._flow_host[relay_id, ba_id], {})


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


@dataclass(frozen=True)
class SimResult:
    records: tuple
    consensus: tuple
    baseline_bw: float


# Event priorities at equal timestamps: detections (which downloads issued at
# that instant must see), finished downloads, false-positive epochs, rounds.
_PRIO_DETECT = 0
_PRIO_STEP = 1
_PRIO_CONSENSUS = 2
_PRIO_ROUND = 3


def _download_plan(done, rate):
    """(durations, outcome) of measurement_steps driven with the durations
    done, then at rate: None, a dead path, at a rate <= 0."""
    steps = measurement_steps()
    durations = list(done)
    try:
        size = steps.send(None)
        for duration in done:
            size = steps.send(duration)
        while True:
            durations.append(size / rate if rate > 0 else None)
            size = steps.send(durations[-1])
    except StopIteration as stop:
        return durations, stop.value


class _ThreadCtx:
    # gen tells measurements apart: the seq of the running one's first event,
    # None while the thread is idle. target and cap are its round plan's,
    # resolved once per measurement. durations and outcome are its download
    # plan at rate, read from solve; download i is in flight
    __slots__ = ("ba_id", "thread_id", "gen", "start", "target", "cap",
                 "rate", "solve", "durations", "outcome", "i")

    def __init__(self, ba_id: str, thread_id: int):
        self.ba_id = ba_id
        self.thread_id = thread_id
        self.gen = None


class _Loop:
    """The one event loop: downloads, detections, rounds, false-positive epochs.

    An event is (time, prio, seq, handler, args); run calls
    handler(time, *args), except at the end of a download, whose handler is
    None and whose args is its thread. seed drives every random draw of the
    loop (round plans, detector misses, false positives).
    """

    def __init__(self, cfg: SimConfig, seed):
        self.cfg = cfg
        self.seed = seed
        self.state = FlowState(cfg.topology, cfg.user_load)
        self.records = []
        self.events = []
        self.seq = 0
        self.queues = {s.ba_id: deque() for s in cfg.scanners}
        self.threads = {
            s.ba_id: [_ThreadCtx(s.ba_id, t) for t in range(s.threads)]
            for s in cfg.scanners
        }
        self.adversarial_hosts = sorted({
            r.host_id for r in cfg.topology.relays.values()
            if r.policy != "honest"
        })
        self.rng_detect = random.Random("%s/detect" % (seed,))
        self.rng_fp = random.Random("%s/fp" % (seed,))
        # rate -> the download plan of a measurement that starts at that rate
        self.download_plans = {}

    def push(self, time, prio, handler, *args):
        heapq.heappush(self.events, (time, prio, self.seq, handler, args))
        self.seq += 1

    def run(self, until: float):
        """Dispatch events in time order; drop the first one past until."""
        events = self.events
        while events:
            time, _prio, _seq, handler, args = heapq.heappop(events)
            if time > until:
                break
            if handler is not None:
                handler(time, *args)
                continue
            ctx = args
            if ctx.durations[ctx.i] is None:
                time += _EPS  # a dead path ends just after it was found
            if ctx.i + 1 < len(ctx.durations):
                self._download(ctx, ctx.i + 1, time)
            else:
                self._complete(ctx, ctx.outcome, time)
                self._start_next(ctx, time)

    # -- scanner thread driving --------------------------------------------

    def _start_next(self, ctx, now):
        """Start ctx's thread on the first queued target it may measure. Only
        a relay whose policy reacts to detection draws a miss and is detected:
        an honest flow's detected flag stays unset, under a delay or not."""
        ba_id = ctx.ba_id
        queue = self.queues[ba_id]
        # a target may still be mid-measurement from the previous round;
        # leave it queued for whichever thread frees up after it. Deleting
        # the head of a deque is O(1)
        for idx, plan in enumerate(queue):
            if (plan.target, ba_id) not in self.state.flows:
                del queue[idx]
                break
        else:
            return
        delay = self.cfg.detector.detection_delay
        detect = (self.cfg.topology.relays[plan.target].policy != "honest"
                  and self.rng_detect.random() >= self.cfg.detector.false_negative_rate)
        self.state.add_flow(plan.target, ba_id, detected=detect and delay == 0)
        ctx.target = plan.target
        ctx.cap = self.state.exit_caps[plan.exit]
        ctx.start = now
        ctx.gen = self.seq
        if detect and delay > 0:
            self.push(now + delay, _PRIO_DETECT, self._on_detect, ctx, ctx.gen)
        self._download(ctx, 0, now)

    def _on_detect(self, _now, ctx, gen):
        # a measurement over before the delay ran out is not detected
        if ctx.gen == gen:
            self.state.detect(ctx.target, ctx.ba_id)

    def _download(self, ctx, i, now):
        """Start ctx's download i at now. The first one reads the rate and
        takes the download plan memoized for it. A later one reads the rate
        only if the solve it came from was emptied, and re-plans from the
        downloads done if the rate changed."""
        if not i or not ctx.solve:
            rate, ctx.solve = self.state.flow_rate(ctx.target, ctx.ba_id)
            rate = min(rate, ctx.cap)
            if not i:
                if rate not in self.download_plans:
                    self.download_plans[rate] = _download_plan((), rate)
                ctx.durations, ctx.outcome = self.download_plans[rate]
            elif rate != ctx.rate:
                ctx.durations, ctx.outcome = _download_plan(ctx.durations[:i], rate)
            ctx.rate = rate
        ctx.i = i
        duration = ctx.durations[i]
        heapq.heappush(self.events, (now if duration is None else now + duration,
                                     _PRIO_STEP, self.seq, None, ctx))
        self.seq += 1

    def _complete(self, ctx, outcome, now):
        self.state.remove_flow(ctx.target, ctx.ba_id)
        self.records.append(MeasurementRecord(
            relay_id=ctx.target,
            ba_id=ctx.ba_id,
            thread_id=ctx.thread_id,
            start_time=ctx.start,
            end_time=now,
            **outcome,  # ok, measured_bw, bytes_total and downloads
        ))
        ctx.gen = None

    # -- rounds and false-positive epochs ------------------------------------

    def _on_round(self, now, scanner, round_idx):
        activation = self.cfg.activation_times
        plans = plan_round(
            scanner,
            [r for r in self.cfg.topology.relays.values()
             if activation.get(r.relay_id, 0.0) <= now],
            "%s/%s/round%d" % (self.seed, scanner.ba_id, round_idx),
        )
        self._enqueue(scanner.ba_id, plans, now)

    def _enqueue(self, ba_id, plans, now):
        """Replace ba_id's queue with plans and start its idle threads."""
        self.queues[ba_id] = deque(plans)  # leftovers of the old round vanish
        for ctx in self.threads[ba_id]:
            if ctx.gen is None:
                self._start_next(ctx, now)

    def _resample_false_positives(self, _now):
        rate = self.cfg.detector.false_positive_rate
        self.state.set_false_positives(
            host_id for host_id in self.adversarial_hosts
            if rate > 0 and self.rng_fp.random() < rate
        )


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
    interval = cfg.consensus_interval
    # bisect_left files an end time equal to edges[e] in epoch e, which it closes
    edges = [e * interval for e in range(int(cfg.duration // interval) + 1)]
    tallies = {}  # (epoch, ba_id) -> {relay_id: [sum, count]}, in record order
    for rec in records:
        if rec.ok:
            tally = tallies.setdefault((bisect_left(edges, rec.end_time), rec.ba_id), {})
            acc = tally.setdefault(rec.relay_id, [0.0, 0])
            acc[0] += rec.measured_bw
            acc[1] += 1
    snapshots = []
    prior = None
    for epoch in range(1, len(edges)):
        votes = []
        for scanner in cfg.scanners:
            tally = tallies.get((epoch, scanner.ba_id))
            if tally:
                votes.append((scanner.ba_id,
                              {r: total / n for r, (total, n) in tally.items()}))
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


def run_probe(cfg: SimConfig, relay_ids, seed) -> tuple:
    """Measure the given relays simultaneously, isolated from any round.

    One synthetic scanner starts every target at time 0, so the targets
    contend exactly as a co-measurement would. The scanner runs one thread
    per target, so a probe takes at most 8 targets (the scanner's thread
    limit) and raises ValueError beyond that. As in a round, each
    target is a non-exit relay measured once: an exit or a repeated id
    raises ValueError, an unknown id ConfigError. Used by the defense
    workflow to force co-probes. seed drives both the exit choice and the
    detector misses. Returns one record per relay.
    """
    relay_ids = list(relay_ids)
    if not relay_ids:
        return ()
    scancfg = ScannerConfig(ba_id="probe", threads=len(relay_ids))
    probe_seed = "%s/probe" % (seed,)
    rng = random.Random(probe_seed)
    relays = cfg.topology.relays
    candidates = exit_candidates(r for r in relays.values() if r.role == "exit")
    plans = []
    for i, relay_id in enumerate(relay_ids):
        relay = relays.get(relay_id)
        if relay is None:
            raise ConfigError("unknown relay %r" % (relay_id,))
        if relay.role == "exit":
            raise ValueError("cannot probe exit %s: scans measure non-exit relays"
                             % relay_id)
        if relay_id in relay_ids[:i]:
            raise ValueError("relay %s repeated: a probe measures each once" % relay_id)
        exit_relay = select_exit(candidates, relay, rng)
        if exit_relay is None:
            raise SimulationError("no qualifying exit for probe of %s" % relay_id)
        plans.append(MeasurementPlan(target=relay_id, exit=exit_relay.relay_id))

    loop = _Loop(replace(cfg, scanners=(scancfg,)), probe_seed)
    loop._enqueue("probe", plans, 0.0)
    loop.run(math.inf)
    return tuple(loop.records)
