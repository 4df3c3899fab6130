"""Device groups: N simulated queues acting as one execution target.

A :class:`DeviceGroup` owns one out-of-order
:class:`~repro.oneapi.queue.Queue` per member device — homogeneous
("2 Iris Xe Max cards") or heterogeneous (the paper's whole zoo at
once: Xeon node + P630 + Iris Xe Max).  Members are built from the
calibrated descriptors but renamed per instance (``"Intel Iris Xe Max
#1"``), so traces, fault rules and reports can target one card of a
pair.

Groups are described by a compact spec string, the same grammar
``repro push --group`` accepts::

    "2x iris-xe-max"            # homogeneous pair
    "cpu, p630, iris-xe-max"    # one of everything
    "cpu, 2x cuda:gpu0"         # mixed, spanning backends

Keys may be backend-qualified (see :mod:`repro.backends.registry`);
each member's queue comes from its own backend.  Out-of-order
ordering is *requested* so exchange commands can overlap push kernels
— oneAPI queues grant it (CPUs additionally get the paper's best
configuration, NUMA arenas), while CUDA streams are inherently
in-order and serialise instead.  The group's simulated completion
time is the *makespan over members* — devices run concurrently, so a
step costs what its slowest shard costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..backends.registry import host_link_for, resolve_device
from ..errors import ConfigurationError
from ..oneapi.device import DeviceDescriptor
from ..oneapi.programcache import ProgramCache
from ..oneapi.queue import Queue
from .links import LinkDescriptor, LinkTable, default_link_table

__all__ = ["GroupMember", "DeviceGroup", "parse_group_spec"]


@dataclass
class GroupMember:
    """One device of a group: descriptor, queue, and host link.

    Attributes:
        key: Canonical device key ("cpu", "p630", "iris-xe-max") — what
            the link table and sharding strategies look up.
        index: Position in the group (shard index).
        device: Per-instance descriptor (renamed copy of the calibrated
            one, so two cards of the same model stay distinguishable).
        queue: The member's out-of-order queue.
        host_link: The member's link to host DRAM.
    """

    key: str
    index: int
    device: DeviceDescriptor
    queue: Queue
    host_link: LinkDescriptor

    @property
    def name(self) -> str:
        """Unique instance name (the renamed descriptor's name)."""
        return self.device.name


def parse_group_spec(spec: str) -> List[str]:
    """Expand a group spec string into a list of device keys.

    Grammar: comma-separated entries, each ``<key>`` or ``<n>x <key>``
    (whitespace optional).  Keys may be backend-qualified device specs
    (``"2x cuda:gpu0, cpu"``); each is validated through the backend
    registry, so an unknown device or backend raises a typed
    :class:`~repro.errors.ConfigurationError`.
    """
    keys: List[str] = []
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            raise ConfigurationError(
                f"empty entry in group spec {spec!r}")
        count = 1
        low = entry.lower()
        if "x" in low:
            head, _, tail = low.partition("x")
            if head.strip().isdigit():
                count = int(head.strip())
                entry = tail.strip()
        if count < 1:
            raise ConfigurationError(
                f"repeat count must be >= 1 in group spec entry {raw!r}")
        key = entry.strip().lower()
        resolve_device(key)   # raises ConfigurationError when unknown
        keys.extend([key] * count)
    if not keys:
        raise ConfigurationError(f"group spec {spec!r} names no devices")
    return keys


def _default_links(keys: Sequence[str]) -> LinkTable:
    """The built-in link table extended with every member's backend
    host link, so groups spanning backends (``"cpu, cuda:gpu0"``)
    price their exchanges without a hand-built table."""
    extra = {}
    for key in keys:
        if ":" in key:
            extra[key] = host_link_for(key)
    return default_link_table(extra or None)


class DeviceGroup:
    """An ordered set of simulated devices executing one workload.

    Args:
        keys: Device keys, one per member, in shard order (e.g. from
            :func:`parse_group_spec`).
        link_table: Interconnect table; defaults to the built-in one
            for the paper's devices.
        names: Explicit per-member instance names (same length as
            ``keys``).  Defaults to ``"<model> #<instance>"``.  Used by
            :meth:`drop` so survivors keep their identities — fault
            state and traces are keyed by instance name, and a renamed
            survivor would inherit the dead member's faults.
        program_cache: Shared JIT program cache backing every member's
            queue (one per group by default).  Programs are keyed by
            device *model*, so shard N+1 of a homogeneous pair never
            recompiles what shard 0 already built — the simulated
            analogue of SYCL's per-context program cache.
    """

    def __init__(self, keys: Sequence[str],
                 link_table: Optional[LinkTable] = None,
                 names: Optional[Sequence[str]] = None,
                 program_cache: Optional[ProgramCache] = None) -> None:
        if not keys:
            raise ConfigurationError("a device group needs >= 1 device")
        if names is not None and len(names) != len(keys):
            raise ConfigurationError(
                f"got {len(names)} names for {len(keys)} devices")
        self.link_table = link_table if link_table is not None \
            else _default_links(keys)
        self.program_cache = program_cache if program_cache is not None \
            else ProgramCache()
        per_key_count: Dict[str, int] = {}
        self.members: List[GroupMember] = []
        for index, key in enumerate(keys):
            backend, base = resolve_device(key)
            instance = per_key_count.get(key, 0)
            per_key_count[key] = instance + 1
            name = names[index] if names is not None \
                else f"{base.name} #{instance}"
            # The rename keeps cards distinguishable; ``model`` keeps
            # the JIT identity shared across same-model instances.
            device = replace(base, name=name, model=base.model or base.name)
            # Out-of-order is a *request* (exchange should overlap
            # pushes); a backend whose streams are inherently in-order
            # (CUDA) serialises instead — visible in the makespan.
            queue = backend.make_queue(device, out_of_order=True,
                                       program_cache=self.program_cache)
            self.members.append(GroupMember(
                key=key, index=index, device=device, queue=queue,
                host_link=self.link_table.host_link(key)))

    @classmethod
    def from_spec(cls, spec: str,
                  link_table: Optional[LinkTable] = None) -> "DeviceGroup":
        """Build a group from a spec string (see module docstring)."""
        return cls(parse_group_spec(spec), link_table=link_table)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def devices(self) -> List[DeviceDescriptor]:
        """Per-member device descriptors, in shard order."""
        return [m.device for m in self.members]

    @property
    def names(self) -> List[str]:
        """Unique instance names, in shard order."""
        return [m.name for m in self.members]

    def link_between(self, index_a: int, index_b: int) -> LinkDescriptor:
        """Effective link for an exchange between two members."""
        return self.link_table.between(self.members[index_a].key,
                                       self.members[index_b].key)

    @property
    def makespan(self) -> float:
        """Simulated completion time of the group [s].

        Members run concurrently, so the group finishes when its
        slowest member's timeline does.
        """
        return max(m.queue.timeline.makespan for m in self.members)

    def reset_records(self) -> None:
        """Clear every member's launch records and timeline."""
        for member in self.members:
            member.queue.reset_records()

    def drop(self, index: int) -> "DeviceGroup":
        """A new group of the survivors after losing member ``index``.

        Used by the sharded runner's device-loss recovery: the failed
        member's queue is abandoned mid-flight (its partial step never
        contributed physics) and the survivors are *re-created* with
        fresh queues — the simulated analogue of tearing down the SYCL
        context and rebuilding it without the dead card.
        """
        if not 0 <= index < len(self.members):
            raise ConfigurationError(
                f"member index {index} out of range [0, {len(self.members)})")
        survivors = [m for i, m in enumerate(self.members) if i != index]
        if not survivors:
            raise ConfigurationError(
                "cannot drop the last device of a group")
        # Survivors keep the shared program cache: a context rebuild
        # does not forget already-JIT-compiled programs.
        return DeviceGroup([m.key for m in survivors],
                           link_table=self.link_table,
                           names=[m.name for m in survivors],
                           program_cache=self.program_cache)
