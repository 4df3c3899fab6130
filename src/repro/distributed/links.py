"""Interconnect cost model: links between the devices of a group.

A :class:`LinkDescriptor` is to an interconnect what a
:class:`~repro.oneapi.device.DeviceDescriptor` is to a device: the
static numbers the cost model needs to price a transfer — achievable
bandwidth and per-message latency.  The paper's machine offers three
qualitatively different paths between its devices (Table 1):

* the **Iris Xe Max** is a discrete card on PCIe 3.0 x8 — every byte
  that leaves or enters it crosses the slowest link of the system;
* the **P630** is an integrated GPU sharing the host's DDR4 — its
  "link" is a DRAM copy at iGPU-visible bandwidth;
* the **Xeon node** exchanges through its own DRAM, with the
  cross-socket UPI fabric already folded into the device's descriptor.

Device-to-device exchange is host-mediated (store-and-forward through
host DRAM, the way a portable SYCL runtime without peer-to-peer copies
does it): latencies add, the slower endpoint's bandwidth wins.
:class:`LinkTable` owns the per-device host links and composes the
effective device-pair link.

Every number here is either a public interface specification (PCIe
3.0 x8 ≈ 7.9 GB/s achievable) or consistent with the calibrated device
descriptors in :mod:`repro.bench.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError

__all__ = ["LinkDescriptor", "LinkTable", "pcie3_x8", "igpu_dram_link",
           "host_dram_link", "default_link_table"]


@dataclass(frozen=True)
class LinkDescriptor:
    """Static description of one interconnect link.

    Attributes:
        name: Display name ("PCIe 3.0 x8", "host DDR4", ...).
        bandwidth: Achievable bandwidth per direction [bytes/s] (the
            STREAM-like fraction of the interface peak, matching how
            device bandwidths are calibrated).
        latency: Fixed per-message cost [s] — DMA setup, doorbell,
            driver submission; what makes many small exchanges slower
            than one large one.
    """

    name: str
    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0.0:
            raise ConfigurationError(
                f"link bandwidth must be positive, got {self.bandwidth!r}")
        if self.latency < 0.0:
            raise ConfigurationError(
                f"link latency must be >= 0, got {self.latency!r}")

    def transfer_seconds(self, nbytes: int) -> float:
        """Time to move ``nbytes`` over this link [s]."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        return self.latency + nbytes / self.bandwidth

    def compose(self, other: "LinkDescriptor") -> "LinkDescriptor":
        """Effective link of a host-mediated two-hop path.

        Store-and-forward through host DRAM: latencies add, the
        narrower hop's bandwidth bounds the pipeline.
        """
        return LinkDescriptor(
            name=f"{self.name} + {other.name}",
            bandwidth=min(self.bandwidth, other.bandwidth),
            latency=self.latency + other.latency)


def pcie3_x8() -> LinkDescriptor:
    """PCIe 3.0 x8 — the Iris Xe Max (DG1) host interface.

    7.88 GB/s per direction (8 GT/s x 8 lanes, 128b/130b encoding);
    ~5 us per transfer for DMA setup and submission.
    """
    return LinkDescriptor(name="PCIe 3.0 x8", bandwidth=7.88e9,
                          latency=5.0e-6)


def igpu_dram_link() -> LinkDescriptor:
    """Shared-DRAM path of the integrated P630.

    The iGPU "transfers" by copying within host DDR4 at its achievable
    device bandwidth (35 GB/s, the calibrated P630 figure); latency is
    one kernel-ish submission.
    """
    return LinkDescriptor(name="shared DDR4 (iGPU)", bandwidth=35.0e9,
                          latency=1.0e-6)


def host_dram_link() -> LinkDescriptor:
    """Host-DRAM exchange path of the CPU node.

    A socket-local copy runs at the calibrated per-domain STREAM
    bandwidth (82 GB/s); cross-socket traffic is already priced by the
    device's UPI term, so the link models the local copy.
    """
    return LinkDescriptor(name="host DDR4", bandwidth=82.0e9,
                          latency=0.5e-6)


#: Host-link factory per canonical device key (see
#: :data:`repro.bench.calibration.DEVICE_NAMES`).
_HOST_LINKS = {
    "cpu": host_dram_link,
    "p630": igpu_dram_link,
    "iris-xe-max": pcie3_x8,
}


class LinkTable:
    """Maps device keys to host links and composes device-pair links.

    Args:
        host_links: Mapping of device key -> :class:`LinkDescriptor`
            for the device's path to host DRAM.  Keys are the group's
            device keys (``"cpu"``, ``"p630"``, ``"iris-xe-max"`` for
            the built-in table; anything for custom machines).
    """

    def __init__(self, host_links: Dict[str, LinkDescriptor]) -> None:
        if not host_links:
            raise ConfigurationError("link table needs at least one link")
        self._host_links = dict(host_links)

    def host_link(self, device_key: str) -> LinkDescriptor:
        """The device's link to host DRAM."""
        try:
            return self._host_links[device_key]
        except KeyError:
            raise ConfigurationError(
                f"no link registered for device {device_key!r}; known: "
                f"{tuple(sorted(self._host_links))}") from None

    def between(self, key_a: str, key_b: str) -> LinkDescriptor:
        """Effective link for an exchange between two devices.

        Host-mediated: the composition of both host links.  An
        exchange of a device with itself (two shards on one physical
        device would be a configuration bug) is rejected — same-device
        shards never exchange through this table.
        """
        return self.host_link(key_a).compose(self.host_link(key_b))



def default_link_table(extra: Optional[Dict[str, LinkDescriptor]] = None
                       ) -> LinkTable:
    """The built-in table for the paper's three devices.

    ``extra`` merges additional device keys in (overriding built-ins),
    for groups built around custom
    :class:`~repro.oneapi.device.DeviceDescriptor` machines.
    """
    links = {key: factory() for key, factory in _HOST_LINKS.items()}
    if extra:
        links.update(extra)
    return LinkTable(links)
