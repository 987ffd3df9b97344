"""Hierarchical fleet topology and collective cost model.

One rack's devices sit on the fast intra-rack ring (HCCS-class links);
racks talk over a slower inter-rack fabric.  A fleet-wide gradient
all-reduce then runs as the standard hierarchical schedule real training
fleets (and NCCL's tree algorithms) use:

1. **intra-rack ring all-reduce** — every rack reduces its own replicas
   with the exact ring law of :class:`InterconnectSpec`, leaving each
   rack holding the rack-local sum;
2. **inter-rack tree all-reduce** — one representative per rack
   exchanges the rack sums over the inter-rack links in a binomial
   tree: ``ceil(log2(R))`` reduce hops up plus the same number of
   broadcast hops down.

Racks run their ring phases concurrently, so phase 1 costs one ring
all-reduce of the *largest* rack.  The tree moves the full payload per
hop divided across the ``min_rack_size`` concurrently-transmitting
links of each rack boundary.

Like a real collectives library, :meth:`FleetTopology.allreduce_us`
performs *algorithm selection*: it prices both the hierarchical
schedule and a flat ring laid over the inter-rack-grade links spanning
every device, and returns the cheaper one.  That makes the public cost
never slower than the flat ring by construction, and for a single rack
it degenerates bitwise to the intra-rack ring law — the two properties
``tests/test_fleet.py`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError
from repro.units import gbps_to_bytes_per_us


@dataclass(frozen=True)
class InterconnectSpec:
    """Per-link characteristics of the device interconnect.

    :meth:`allreduce_us` is the ring all-reduce law (reduce-scatter then
    all-gather): each of ``N`` devices moves ``2 * (N - 1) / N`` of the
    payload over its link in ``2 * (N - 1)`` pipelined phases, so

        t = 2 * (N - 1) / N * payload / bandwidth  +  2 * (N - 1) * latency

    Attributes:
        link_bandwidth_gbps: sustained point-to-point bandwidth of one
            ring link, in GB/s (HCCS-class links sustain tens of GB/s).
        link_latency_us: per-phase software + wire latency of one ring
            hop, in microseconds.
    """

    link_bandwidth_gbps: float = 50.0
    link_latency_us: float = 12.0

    def __post_init__(self) -> None:
        if self.link_bandwidth_gbps <= 0:
            raise ConfigurationError(
                f"link_bandwidth_gbps must be positive: "
                f"{self.link_bandwidth_gbps}"
            )
        if self.link_latency_us < 0:
            raise ConfigurationError(
                f"link_latency_us must be non-negative: {self.link_latency_us}"
            )

    def allreduce_us(self, payload_bytes: float, n_devices: int) -> float:
        """Ring all-reduce wall time for one gradient exchange.

        A single device has nothing to exchange; the collective is free.

        Raises:
            ConfigurationError: on a non-positive device count or a
                negative payload.
        """
        if n_devices < 1:
            raise ConfigurationError(
                f"n_devices must be >= 1: {n_devices}"
            )
        if payload_bytes < 0:
            raise ConfigurationError(
                f"payload_bytes must be non-negative: {payload_bytes}"
            )
        if n_devices == 1:
            return 0.0
        phases = 2 * (n_devices - 1)
        transferred = payload_bytes * phases / n_devices
        bandwidth = gbps_to_bytes_per_us(self.link_bandwidth_gbps)
        return transferred / bandwidth + phases * self.link_latency_us


def default_inter_rack_links() -> InterconnectSpec:
    """Inter-rack fabric: a quarter the bandwidth, twice the latency."""
    return InterconnectSpec(link_bandwidth_gbps=12.5, link_latency_us=25.0)


@dataclass(frozen=True)
class CollectiveCost:
    """Priced alternatives for one fleet-wide all-reduce."""

    #: Intra-rack ring phase + inter-rack tree phase.
    hierarchical_us: float
    #: One flat ring over inter-rack-grade links spanning all devices.
    flat_ring_us: float

    @property
    def chosen_us(self) -> float:
        """The selected algorithm's cost (the cheaper of the two)."""
        return min(self.hierarchical_us, self.flat_ring_us)

    @property
    def algorithm(self) -> str:
        """Which schedule the selection picked."""
        return (
            "hierarchical"
            if self.hierarchical_us <= self.flat_ring_us
            else "flat-ring"
        )


@dataclass(frozen=True)
class FleetTopology:
    """Rack-structured interconnect of a training fleet.

    Attributes:
        devices_per_rack: ring size of one rack; devices fill racks in
            id order, so a fleet of ``N`` devices occupies
            ``ceil(N / devices_per_rack)`` racks.
        intra: per-link characteristics of the intra-rack ring.
        inter: per-link characteristics of the inter-rack fabric.
    """

    devices_per_rack: int = 16
    intra: InterconnectSpec = field(default_factory=InterconnectSpec)
    inter: InterconnectSpec = field(default_factory=default_inter_rack_links)

    def __post_init__(self) -> None:
        if self.devices_per_rack < 1:
            raise ConfigurationError(
                f"devices_per_rack must be >= 1: {self.devices_per_rack}"
            )

    def rack_sizes(self, n_devices: int) -> tuple[int, ...]:
        """Rack occupancy for ``n_devices`` filled in id order."""
        if n_devices < 0:
            raise ConfigurationError(
                f"n_devices must be non-negative: {n_devices}"
            )
        full, rest = divmod(n_devices, self.devices_per_rack)
        return (self.devices_per_rack,) * full + ((rest,) if rest else ())

    def breakdown(
        self, payload_bytes: float, rack_sizes: Sequence[int]
    ) -> CollectiveCost:
        """Price both collective schedules for one gradient exchange.

        ``rack_sizes`` is the live occupancy per rack (elastic churn
        leaves partially-filled racks); empty racks are ignored.
        """
        sizes = [int(s) for s in rack_sizes if s > 0]
        return self._price(
            payload_bytes,
            sum(sizes),
            len(sizes),
            max(sizes, default=0),
            min(sizes, default=0),
        )

    def breakdown_for(
        self, payload_bytes: float, n_devices: int
    ) -> CollectiveCost:
        """:meth:`breakdown` of ``rack_sizes(n_devices)``, in O(1).

        Racks fill in id order, so every rack but a partial last one is
        full: the rack count and the largest and smallest occupancy
        follow from one ``divmod``.  Bitwise equal to
        ``breakdown(payload_bytes, rack_sizes(n_devices))``.
        """
        if n_devices < 0:
            raise ConfigurationError(
                f"n_devices must be non-negative: {n_devices}"
            )
        full, rest = divmod(n_devices, self.devices_per_rack)
        return self._price(
            payload_bytes,
            n_devices,
            full + (1 if rest else 0),
            self.devices_per_rack if full else rest,
            rest if rest else self.devices_per_rack,
        )

    def _price(
        self,
        payload_bytes: float,
        n: int,
        racks: int,
        largest: int,
        smallest: int,
    ) -> CollectiveCost:
        """Both schedules for ``n`` devices over ``racks`` occupied racks."""
        if payload_bytes < 0:
            raise ConfigurationError(
                f"payload_bytes must be non-negative: {payload_bytes}"
            )
        if n <= 1:
            return CollectiveCost(hierarchical_us=0.0, flat_ring_us=0.0)
        if racks == 1:
            # Single rack: exactly the ring law, no tree phase — the
            # degenerate case the property test pins down bitwise.
            ring = self.intra.allreduce_us(payload_bytes, n)
            return CollectiveCost(hierarchical_us=ring, flat_ring_us=ring)
        intra_us = self.intra.allreduce_us(payload_bytes, largest)
        hops = math.ceil(math.log2(racks))
        # Each tree hop moves the full rack-sum payload across a rack
        # boundary, striped over the concurrently-transmitting links of
        # the smallest participating rack.
        shard = payload_bytes / smallest
        per_hop = shard / gbps_to_bytes_per_us(
            self.inter.link_bandwidth_gbps
        ) + self.inter.link_latency_us
        hierarchical = intra_us + 2 * hops * per_hop
        flat = self.inter.allreduce_us(payload_bytes, n)
        return CollectiveCost(
            hierarchical_us=hierarchical, flat_ring_us=flat
        )

    def allreduce_us(
        self, payload_bytes: float, rack_sizes: Sequence[int]
    ) -> float:
        """Selected all-reduce cost (cheaper of hierarchical and ring)."""
        return self.breakdown(payload_bytes, rack_sizes).chosen_us
