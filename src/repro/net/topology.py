"""Declarative geo-scale network topologies, compiled onto per-link configs.

A :class:`Topology` names a set of *regions* (each owning some replicas),
an intra-region link profile, and directed inter-region profiles that may be
asymmetric (trans-pacific return paths really are slower).  ``compile`` onto
a live :class:`~repro.net.network.Network` turns the declaration into
``set_link`` per-directed-pair overrides, the same capacity model the
overload layer added — topology is pure configuration, the transport itself
is untouched and the default (no-topology) path stays byte-identical.

:class:`PlacedTopology` keeps the node→region placement (replicas from the
declaration, clients placed explicitly or round-robin) and answers the
questions fault campaigns ask: which directed links cross a region boundary
(``boundary_links`` — the cut sets partition storms stack via
``Network.cut_links``), which replicas live in a region (``region_outage``
targets), and what profile a directed pair currently uses
(``latency_spike`` restores it afterwards).

Presets: ``lan`` (the historical single-site default), ``wan3`` (three
regions, two coasts and one overseas), ``geo5`` (five regions incl. a
client-only edge region with no replicas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.network import Network, NetworkConfig


@dataclass(frozen=True)
class LinkSpec:
    """One link profile (mirrors :class:`NetworkConfig`, but declarative)."""

    delay: float
    jitter: float = 0.0
    drop_rate: float = 0.0
    bandwidth: float = 0.0
    queue_bytes: int = 0

    def to_config(self) -> NetworkConfig:
        return NetworkConfig(
            delay=self.delay,
            jitter=self.jitter,
            drop_rate=self.drop_rate,
            bandwidth=self.bandwidth,
            queue_bytes=self.queue_bytes,
        )

    def scaled(self, factor: float) -> "LinkSpec":
        """The same link with latency inflated ``factor``× (latency spikes)."""
        return LinkSpec(
            delay=self.delay * factor,
            jitter=self.jitter * factor,
            drop_rate=self.drop_rate,
            bandwidth=self.bandwidth,
            queue_bytes=self.queue_bytes,
        )


@dataclass(frozen=True)
class Region:
    """A named site: the replicas deployed there (may be empty — a
    client-only edge region)."""

    name: str
    replicas: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Topology:
    """A complete multi-region deployment description."""

    name: str
    regions: Tuple[Region, ...]
    intra: LinkSpec
    default_inter: LinkSpec
    # Directed overrides: (src_region, dst_region) -> profile.  Pairs not
    # listed use default_inter; listing only one direction makes a link
    # asymmetric.
    inter: Tuple[Tuple[Tuple[str, str], LinkSpec], ...] = ()

    def __post_init__(self) -> None:
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names in topology {self.name!r}")
        seen: Dict[str, str] = {}
        for region in self.regions:
            for replica_id in region.replicas:
                if replica_id in seen:
                    raise ValueError(
                        f"replica {replica_id!r} placed in both "
                        f"{seen[replica_id]!r} and {region.name!r}"
                    )
                seen[replica_id] = region.name

    # -- lookups ------------------------------------------------------------

    def region_names(self) -> List[str]:
        return [region.name for region in self.regions]

    def region(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"no region {name!r} in topology {self.name!r}")

    def replica_ids(self) -> List[str]:
        return [rid for region in self.regions for rid in region.replicas]

    def link_between(self, src_region: str, dst_region: str) -> LinkSpec:
        """Effective profile for traffic from one region to another."""
        if src_region == dst_region:
            return self.intra
        for pair, spec in self.inter:
            if pair == (src_region, dst_region):
                return spec
        return self.default_inter


class PlacedTopology:
    """A topology bound to one network: placement plus compiled links.

    ``compile`` places every replica; clients are placed as they are
    created (``place_client``), either in an explicit region or round-robin
    across regions in declaration order — deterministic, so seeded runs
    replay exactly.
    """

    def __init__(self, topology: Topology, network: Network) -> None:
        self.topology = topology
        self.network = network
        self.placement: Dict[str, str] = {}
        self._round_robin = 0

    # -- compilation --------------------------------------------------------

    def compile(self) -> None:
        """Place all replicas and set every directed replica-pair link."""
        for region in self.topology.regions:
            for replica_id in region.replicas:
                self.placement[replica_id] = region.name
        placed = sorted(self.placement)
        for src in placed:
            for dst in placed:
                if src != dst:
                    self._set_pair(src, dst)

    def place_client(self, client_id: str, region: Optional[str] = None) -> str:
        """Place a client; links to every already-placed node are compiled.
        Returns the region chosen."""
        if client_id in self.placement:
            return self.placement[client_id]
        if region is None:
            names = self.topology.region_names()
            region = names[self._round_robin % len(names)]
            self._round_robin += 1
        else:
            self.topology.region(region)  # validate the name
        others = sorted(self.placement)
        self.placement[client_id] = region
        for other in others:
            self._set_pair(client_id, other)
            self._set_pair(other, client_id)
        return region

    def _set_pair(self, src: str, dst: str) -> None:
        spec = self.topology.link_between(self.placement[src], self.placement[dst])
        self.network.set_link(src, dst, spec.to_config())

    # -- campaign queries ----------------------------------------------------

    def region_replicas(self, region: str) -> List[str]:
        return list(self.topology.region(region).replicas)

    def boundary_links(self, region_a: str, region_b: str) -> List[Tuple[str, str]]:
        """Directed links (replicas and placed clients) crossing the
        a/b boundary, both directions — a storm's cut set."""
        in_a = sorted(n for n, r in self.placement.items() if r == region_a)
        in_b = sorted(n for n, r in self.placement.items() if r == region_b)
        pairs = [(src, dst) for src in in_a for dst in in_b]
        pairs += [(src, dst) for src in in_b for dst in in_a]
        return pairs

    def boundaries(self) -> List[Tuple[str, str]]:
        """Unordered region pairs that both contain at least one replica —
        the boundaries a partition storm may cut."""
        populated = [
            region.name for region in self.topology.regions if region.replicas
        ]
        return [
            (populated[i], populated[j])
            for i in range(len(populated))
            for j in range(i + 1, len(populated))
        ]

    def spike_pairs(self, region: str = "") -> List[Tuple[str, str]]:
        """Directed placed pairs whose traffic crosses a region boundary;
        with ``region`` set, only pairs touching that region."""
        placed = sorted(self.placement)
        pairs: List[Tuple[str, str]] = []
        for src in placed:
            for dst in placed:
                if src == dst:
                    continue
                src_region = self.placement[src]
                dst_region = self.placement[dst]
                if src_region == dst_region:
                    continue
                if region and region not in (src_region, dst_region):
                    continue
                pairs.append((src, dst))
        return pairs

    def current_spec(self, src: str, dst: str) -> LinkSpec:
        return self.topology.link_between(self.placement[src], self.placement[dst])


# -- presets ---------------------------------------------------------------------

#: Single-site deployment matching the historical default link parameters.
LAN = Topology(
    name="lan",
    regions=(Region("site", ("R0", "R1", "R2", "R3")),),
    intra=LinkSpec(delay=0.0005, jitter=0.0001),
    default_inter=LinkSpec(delay=0.0005, jitter=0.0001),
)

#: Three regions: a two-replica east-coast site plus single-replica sites in
#: Europe and Asia.  Inter-region latencies are one-way and asymmetric on the
#: trans-pacific path (congested return direction).
WAN3 = Topology(
    name="wan3",
    regions=(
        Region("us-east", ("R0", "R1")),
        Region("eu-west", ("R2",)),
        Region("ap-south", ("R3",)),
    ),
    intra=LinkSpec(delay=0.0005, jitter=0.0002),
    default_inter=LinkSpec(delay=0.045, jitter=0.004),
    inter=(
        (("us-east", "eu-west"), LinkSpec(delay=0.038, jitter=0.003)),
        (("eu-west", "us-east"), LinkSpec(delay=0.040, jitter=0.003)),
        (("us-east", "ap-south"), LinkSpec(delay=0.085, jitter=0.006)),
        (("ap-south", "us-east"), LinkSpec(delay=0.095, jitter=0.008)),
        (("eu-west", "ap-south"), LinkSpec(delay=0.065, jitter=0.005)),
        (("ap-south", "eu-west"), LinkSpec(delay=0.070, jitter=0.006)),
    ),
)

#: Five regions: four replica sites spread across continents plus a
#: client-only edge region that is far from everything (worst-case clients).
GEO5 = Topology(
    name="geo5",
    regions=(
        Region("us-east", ("R0",)),
        Region("us-west", ("R1",)),
        Region("eu-west", ("R2",)),
        Region("ap-south", ("R3",)),
        Region("edge", ()),
    ),
    intra=LinkSpec(delay=0.0005, jitter=0.0002),
    default_inter=LinkSpec(delay=0.075, jitter=0.006),
    inter=(
        (("us-east", "us-west"), LinkSpec(delay=0.030, jitter=0.002)),
        (("us-west", "us-east"), LinkSpec(delay=0.032, jitter=0.002)),
        (("us-east", "eu-west"), LinkSpec(delay=0.040, jitter=0.003)),
        (("eu-west", "us-east"), LinkSpec(delay=0.042, jitter=0.003)),
        (("us-west", "ap-south"), LinkSpec(delay=0.090, jitter=0.007)),
        (("ap-south", "us-west"), LinkSpec(delay=0.098, jitter=0.008)),
        (("edge", "us-east"), LinkSpec(delay=0.110, jitter=0.010)),
        (("us-east", "edge"), LinkSpec(delay=0.105, jitter=0.010)),
    ),
)

PRESETS: Dict[str, Topology] = {
    LAN.name: LAN,
    WAN3.name: WAN3,
    GEO5.name: GEO5,
}


def topology_preset(name: str) -> Topology:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown topology preset {name!r} (have: {', '.join(sorted(PRESETS))})"
        ) from None
