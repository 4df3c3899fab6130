"""Multi-device sharded execution over the simulated oneAPI runtime.

The paper benchmarks the Boris pusher on each device in isolation; this
layer asks the follow-up question its Section 5 gestures at — what the
*machine*, all devices at once, can deliver.  It decomposes one
particle ensemble across a :class:`~repro.distributed.group.DeviceGroup`
of simulated queues, prices the per-step halo exchange through an
interconnect cost model (:mod:`~repro.distributed.links`), overlaps
exchange with compute via the runtime's event graph, and balances load
with a static split (:mod:`~repro.distributed.sharding`).  See
``docs/DISTRIBUTED.md`` for the design.
"""

from .links import (LinkDescriptor, LinkTable, default_link_table,
                    host_dram_link, igpu_dram_link, pcie3_x8)
from .sharding import (STRATEGY_NAMES, EvenSharding, ProportionalSharding,
                       ShardingStrategy, split_counts, strategy_by_name)
from .group import DeviceGroup, GroupMember, parse_group_spec
from .exchange import ExchangeModel, ExchangePolicy, ExchangeReport
from .runner import GroupReport, ShardedPushEngine, ShardReport

__all__ = [
    "LinkDescriptor", "LinkTable", "default_link_table",
    "host_dram_link", "igpu_dram_link", "pcie3_x8",
    "STRATEGY_NAMES", "EvenSharding", "ProportionalSharding",
    "ShardingStrategy", "split_counts", "strategy_by_name",
    "DeviceGroup", "GroupMember", "parse_group_spec",
    "ExchangeModel", "ExchangePolicy", "ExchangeReport",
    "GroupReport", "ShardedPushEngine", "ShardReport",
]
