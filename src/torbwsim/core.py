"""Shared domain types: relays, hosts, clusters, measurement records, consensus.

Bandwidth is bytes/second everywhere in this package. Unit conversion happens
only where configs are read (units.py, netsim.build_sim_config).
"""

import json
import math
import re
import statistics
from dataclasses import dataclass, field
from typing import Optional

ROLES = frozenset({"guard", "middle", "exit"})

# Resource-sharing behavior of a relay's host when a measurement is detected:
#   honest            - no reaction, plain fair sharing
#   drop_on_measure   - drops its own user flows for the measurement's duration
#   cotormult_member  - co-resident cluster: all user flows on the host drop and
#                       the measured members claim the whole host
#   detormult_member  - measurement traffic is rerouted to a shared dedicated
#                       server while user flows stay on the cheap cluster host
POLICIES = frozenset(
    {"honest", "drop_on_measure", "cotormult_member", "detormult_member"}
)

HOST_KINDS = frozenset({"relay_host", "dedicated_server"})

_FINGERPRINT_RE = re.compile(r"[0-9A-F]{40}")


class ConfigError(ValueError):
    """Invalid topology or simulation configuration."""


class SimulationError(RuntimeError):
    """Simulation could not run to completion."""


class InsufficientDataError(ValueError):
    """Analysis input does not contain enough data to produce a result."""


def is_fingerprint(s: str) -> bool:
    return isinstance(s, str) and bool(_FINGERPRINT_RE.fullmatch(s))


@dataclass(frozen=True)
class RelaySpec:
    relay_id: str
    host_id: str
    advertised_bw: float
    role: str = "middle"
    policy: str = "honest"
    family_id: Optional[str] = None

    def __post_init__(self):
        if not is_fingerprint(self.relay_id):
            raise ConfigError(
                "relay_id must be a 40-char uppercase hex fingerprint, got %r"
                % (self.relay_id,)
            )
        if self.advertised_bw <= 0:
            raise ConfigError("relay %s: advertised_bw must be > 0" % self.relay_id)
        if self.role not in ROLES:
            raise ConfigError("relay %s: unknown role %r" % (self.relay_id, self.role))
        if self.policy not in POLICIES:
            raise ConfigError(
                "relay %s: unknown policy %r" % (self.relay_id, self.policy)
            )


@dataclass(frozen=True)
class HostSpec:
    host_id: str
    capacity: float
    kind: str = "relay_host"
    efficiency: float = 1.0

    def __post_init__(self):
        if self.capacity <= 0:
            raise ConfigError("host %s: capacity must be > 0" % self.host_id)
        if not 0 < self.efficiency <= 1:
            raise ConfigError(
                "host %s: efficiency must be in (0, 1], got %r"
                % (self.host_id, self.efficiency)
            )
        if self.kind not in HOST_KINDS:
            raise ConfigError("host %s: unknown kind %r" % (self.host_id, self.kind))

    @property
    def usable_capacity(self) -> float:
        return self.capacity * self.efficiency


@dataclass(frozen=True)
class Cluster:
    cluster_id: str
    members: tuple
    host_id: str


@dataclass(frozen=True)
class ClusterTopology:
    clusters: tuple = ()
    dedicated_server: Optional[str] = None

    def cluster_of(self, relay_id: str) -> Optional[Cluster]:
        for c in self.clusters:
            if relay_id in c.members:
                return c
        return None


@dataclass(frozen=True)
class Topology:
    """Static network description: hosts, relays, and attack clusters."""

    relays: dict
    hosts: dict
    clusters: ClusterTopology = field(default_factory=ClusterTopology)

    def __post_init__(self):
        for relay in self.relays.values():
            if relay.host_id not in self.hosts:
                raise ConfigError(
                    "relay %s references unknown host %r"
                    % (relay.relay_id, relay.host_id)
                )
        for cluster in self.clusters.clusters:
            if cluster.host_id not in self.hosts:
                raise ConfigError(
                    "cluster %s references unknown host %r"
                    % (cluster.cluster_id, cluster.host_id)
                )
            for member in cluster.members:
                if member not in self.relays:
                    raise ConfigError(
                        "cluster %s lists unknown relay %r"
                        % (cluster.cluster_id, member)
                    )
        for relay in self.relays.values():
            if relay.policy in ("cotormult_member", "detormult_member"):
                cluster = self.clusters.cluster_of(relay.relay_id)
                if cluster is None:
                    raise ConfigError(
                        "relay %s has policy %s but belongs to no cluster"
                        % (relay.relay_id, relay.policy)
                    )
                if relay.policy == "cotormult_member" and relay.host_id != cluster.host_id:
                    raise ConfigError(
                        "cotormult relay %s must live on its cluster host %s"
                        % (relay.relay_id, cluster.host_id)
                    )
        ded = self.clusters.dedicated_server
        if ded is not None and ded not in self.hosts:
            raise ConfigError("unknown dedicated_server host %r" % (ded,))
        if any(r.policy == "detormult_member" for r in self.relays.values()):
            if ded is None:
                raise ConfigError(
                    "detormult_member relays need a dedicated_server host"
                )
            if self.hosts[ded].kind != "dedicated_server":
                raise ConfigError(
                    "dedicated_server %s must have kind dedicated_server" % ded
                )


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """One scanner measurement of one relay.

    start_time may be None for records reconstructed from bandwidth files,
    which carry only the end timestamp.
    """

    relay_id: str
    ba_id: str
    thread_id: int
    start_time: Optional[float]
    end_time: float
    measured_bw: float
    bytes_total: int = 0
    downloads: int = 0
    ok: bool = True

    def __post_init__(self):
        if self.start_time is not None and self.end_time <= self.start_time:
            raise ValueError(
                "measurement of %s: end_time must exceed start_time" % self.relay_id
            )
        if self.ok and not 0 < self.measured_bw < math.inf:
            raise ValueError(
                "successful measurement of %s must have a finite measured_bw > 0"
                % self.relay_id
            )

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.end_time - self.start_time


_REQUIRED = object()

# records.jsonl: (json key, MeasurementRecord field, default when absent,
# the JSON types its value may take, what they are called); a number must
# be finite, and a bool is no number
_RECORD_KEYS = (
    ("relay_id", "relay_id", _REQUIRED, (str,),
     "a 40-char uppercase hex fingerprint"),
    ("ba_id", "ba_id", _REQUIRED, (str,), "a string"),
    ("thread_id", "thread_id", 0, (int,), "an integer"),
    ("start", "start_time", None, (int, float, type(None)),
     "null or a finite number"),
    ("end", "end_time", _REQUIRED, (int, float), "a finite number"),
    ("bw", "measured_bw", _REQUIRED, (int, float), "a finite number"),
    ("bytes", "bytes_total", 0, (int,), "an integer"),
    ("downloads", "downloads", 0, (int,), "an integer"),
    ("ok", "ok", True, (bool,), "true or false"),
)


def records_to_jsonl(records) -> str:
    """One JSON object per record, keys in _RECORD_KEYS order."""
    return "\n".join(
        json.dumps({key: getattr(rec, name) for key, name, *_ in _RECORD_KEYS})
        for rec in records
    ) + "\n"


def read_records_jsonl(path: str) -> list:
    """Parse records.jsonl, ignoring unknown keys; a bad line, including one
    that is not a JSON object or has a value _RECORD_KEYS does not allow,
    raises ConfigError."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise ValueError("expected a JSON object, got %s%s" % (
                        type(doc).__name__,
                        "; bandwidth files are read from their directory"
                        if type(doc) in (int, float) else ""))
                fields = {}
                for key, name, default, types, wanted in _RECORD_KEYS:
                    value = doc[key] if default is _REQUIRED else doc.get(key, default)
                    if type(value) not in types or (
                            float in types and value is not None
                            and not math.isfinite(value)) or (
                            key == "relay_id" and not is_fingerprint(value)):
                        raise ValueError("%s must be %s, got %r" % (key, wanted, value))
                    fields[name] = value
                records.append(MeasurementRecord(**fields))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError("%s:%d: bad record: %s" % (path, lineno, exc))
    return records


@dataclass(frozen=True)
class ConsensusSnapshot:
    epoch: int
    weights: dict
    total_weight: float = field(init=False)

    def __post_init__(self):
        for relay_id, w in self.weights.items():
            if w < 0:
                raise ValueError("negative consensus weight for %s" % relay_id)
        object.__setattr__(self, "total_weight", float(sum(self.weights.values())))


def aggregate_consensus(votes, prior: Optional[ConsensusSnapshot] = None,
                        epoch: int = 0) -> ConsensusSnapshot:
    """Combine per-scanner bandwidth votes into consensus weights.

    Each vote is (ba_id, {relay_id: measured_bw}). A relay's weight is the
    median over the scanners that measured it; relays present only in the
    prior snapshot keep their prior weight.
    """
    if not votes:
        raise ValueError("no votes")
    for ba_id, vote in votes:
        if not vote:
            raise ValueError("empty vote from %s" % ba_id)
    weights = {}
    if prior is not None:
        weights.update(prior.weights)
    by_relay = {}
    for _ba_id, vote in votes:
        for relay_id, bw in vote.items():
            by_relay.setdefault(relay_id, []).append(bw)
    for relay_id, values in by_relay.items():
        weights[relay_id] = float(statistics.median(values))
    return ConsensusSnapshot(epoch=epoch, weights=weights)


def selection_probability(snapshot: ConsensusSnapshot, relay_ids) -> float:
    """Fraction of total consensus weight held by the given relays."""
    if snapshot.total_weight <= 0:
        raise ValueError("degenerate consensus")
    owned = sum(snapshot.weights.get(r, 0.0) for r in sorted(set(relay_ids)))
    return owned / snapshot.total_weight
