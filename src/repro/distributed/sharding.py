"""Sharding strategies: how a particle ensemble splits across devices.

Because the Boris push is embarrassingly parallel over particles, a
multi-device run is a 1-D block decomposition of the particle index
space: device *i* owns one contiguous slice.  The whole load-balancing
problem reduces to choosing the slice sizes, and this module provides
the static policies the scaling study compares:

* :class:`EvenSharding` — equal counts, the naive baseline.  Optimal
  for homogeneous groups, badly skewed for heterogeneous ones (the
  slowest device paces every step).
* :class:`ProportionalSharding` — counts proportional to a static
  device capability: calibrated memory bandwidth (right for the
  memory-bound precalculated scenario) or achievable flops (right for
  the compute-bound analytical scenario).

A split is fixed for the run; only a device loss repartitions (over
the survivors, see :class:`~repro.distributed.runner.ShardedPushEngine`).

All strategies produce counts through :func:`split_counts`
(largest-remainder rounding), so shard counts always sum *exactly* to
the ensemble size — acceptance-critical for heterogeneous splits, where
naive ``int(n * w)`` rounding loses particles.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..fp import Precision
from ..oneapi.device import DeviceDescriptor

__all__ = ["split_counts", "ShardingStrategy", "EvenSharding",
           "ProportionalSharding", "strategy_by_name", "STRATEGY_NAMES"]


def split_counts(n: int, weights: Sequence[float]) -> List[int]:
    """Split ``n`` items into ``len(weights)`` counts summing exactly to n.

    Largest-remainder (Hamilton) apportionment: each shard gets the
    floor of its exact share, then the leftover items go to the largest
    fractional remainders (ties broken toward lower shard index, which
    keeps the result deterministic).  Zero weights are legal and yield
    zero-particle shards; ``n`` smaller than the shard count simply
    leaves some shards empty.
    """
    weights = np.asarray(list(weights), dtype=np.float64)
    if weights.size == 0:
        raise ConfigurationError("split_counts needs at least one weight")
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise ConfigurationError(
            f"weights must be finite and >= 0, got {weights.tolist()}")
    total = float(weights.sum())
    if total == 0.0:
        # No information: fall back to an even split.
        weights = np.ones_like(weights)
        total = float(weights.size)
    exact = n * weights / total
    counts = np.floor(exact).astype(int)
    remainder = int(n - counts.sum())
    if remainder:
        # Stable argsort on negated remainders → ties go to lower index.
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts.tolist()


class ShardingStrategy:
    """Base class: maps (ensemble size, device list) to shard counts."""

    #: Short name used by the CLI and reports.
    name = "base"

    def initial_counts(self, n: int,
                       devices: Sequence[DeviceDescriptor]) -> List[int]:
        """Initial partition of ``n`` particles over ``devices``."""
        raise NotImplementedError


class EvenSharding(ShardingStrategy):
    """Equal particle counts per device (the baseline)."""

    name = "even"

    def initial_counts(self, n: int,
                       devices: Sequence[DeviceDescriptor]) -> List[int]:
        if not devices:
            raise ConfigurationError("need at least one device")
        return split_counts(n, [1.0] * len(devices))


class ProportionalSharding(ShardingStrategy):
    """Counts proportional to a static device capability.

    Args:
        metric: ``"bandwidth"`` (calibrated aggregate DRAM bandwidth —
            the right proxy for the memory-bound precalculated
            scenario) or ``"flops"`` (achievable flops at ``precision``
            — right for the compute-bound analytical scenario).
        precision: Precision the flops metric is evaluated at; matters
            because DP emulation reshuffles the ranking (an Iris Xe Max
            outruns the P630 in SP but collapses below it in DP).
    """

    METRICS = ("bandwidth", "flops")

    def __init__(self, metric: str = "bandwidth",
                 precision: Precision = Precision.SINGLE) -> None:
        if metric not in self.METRICS:
            raise ConfigurationError(
                f"metric must be one of {self.METRICS}, got {metric!r}")
        self.metric = metric
        self.precision = precision
        self.name = metric

    def weight(self, device: DeviceDescriptor) -> float:
        """The capability weight of one device."""
        if self.metric == "bandwidth":
            return device.total_bandwidth
        return device.achievable_flops(self.precision,
                                       device.compute_units)

    def initial_counts(self, n: int,
                       devices: Sequence[DeviceDescriptor]) -> List[int]:
        if not devices:
            raise ConfigurationError("need at least one device")
        return split_counts(n, [self.weight(d) for d in devices])


#: Strategy names accepted by :func:`strategy_by_name` / the CLI.
STRATEGY_NAMES = ("even", "bandwidth", "flops")


def strategy_by_name(name: str,
                     precision: Precision = Precision.SINGLE
                     ) -> ShardingStrategy:
    """Build a strategy from its CLI name."""
    if name == "even":
        return EvenSharding()
    if name in ("bandwidth", "flops"):
        return ProportionalSharding(metric=name, precision=precision)
    raise ConfigurationError(
        f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
