"""Persistent JIT program cache: pay the compile once per program.

The paper attributes its ~50%-slower first iteration to JIT compilation
of the kernel (plus cold first-touch memory).  Real DPC++ runtimes
mitigate exactly this with a *program cache*: the compiled binary is
keyed by (kernel chain, device, build options) and reused — in-process
always, and across processes when persistent caching
(``SYCL_CACHE_PERSISTENT``) is enabled.

:class:`ProgramCache` reproduces both halves of that mechanism for the
simulated runtime:

* a **cold** build charges the device's calibrated
  ``jit_compile_seconds`` to the launch that triggered it — the
  first-iteration penalty the paper measures;
* a **warm** hit charges nothing — in-process reuse, or an entry
  restored from the optional on-disk persistence file;
* the cache is **shareable**: one instance can back every queue of a
  device group, so shard N+1 of the same device model never recompiles
  the program shard 0 already built (keys use the device *model*, not
  the per-card instance name).

Keys are :class:`ProgramKey` — ``(kernel chain, device, layout,
precision, backend)`` — so a fused kernel chain is a different program
from its constituent kernels, and the same chain rebuilt for another
layout or precision is a different program too (a real JIT specialises
on both).  The backend field keeps runtimes isolated: the same chain
JIT-compiled by the simulated oneAPI backend (SPIR-V -> ISA) is *not*
a warm hit for the simulated CUDA backend (NVRTC -> cubin), even when
one shared cache instance backs queues of both (see
:mod:`repro.backends`).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["ProgramKey", "ProgramCache"]

#: Schema marker of the persistence file.
_PERSIST_VERSION = 1


@dataclass(frozen=True)
class ProgramKey:
    """Identity of one compiled program.

    Attributes:
        chain: Ordered kernel names compiled into the program (length 1
            for an unfused kernel, >1 for a fused chain).
        device: Device *model* identity (``DeviceDescriptor.jit_key``),
            so same-model cards in a group share programs.
        layout: Particle layout the program was specialised for ("AoS",
            "SoA", or "" when the kernel is layout-agnostic).
        precision: Storage precision label ("float", "double", or "").
        backend: Runtime backend that compiled the program (see
            :mod:`repro.backends`); distinct backends never share
            compiled artefacts.
    """

    chain: Tuple[str, ...]
    device: str
    layout: str = ""
    precision: str = ""
    backend: str = "oneapi"

    def __post_init__(self) -> None:
        if not self.chain or any(not name for name in self.chain):
            raise ConfigurationError(
                f"program key needs a non-empty kernel chain, "
                f"got {self.chain!r}")
        if not self.device:
            raise ConfigurationError("program key needs a device identity")
        if not self.backend:
            raise ConfigurationError("program key needs a backend identity")

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the persistence file format)."""
        return {"chain": list(self.chain), "device": self.device,
                "layout": self.layout, "precision": self.precision,
                "backend": self.backend}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProgramKey":
        # ``backend`` defaults to "oneapi" so persistence files written
        # before the backend field existed load as oneAPI programs.
        return cls(chain=tuple(data["chain"]), device=str(data["device"]),
                   layout=str(data.get("layout", "")),
                   precision=str(data.get("precision", "")),
                   backend=str(data.get("backend", "oneapi")))


@dataclass
class CacheStats:
    """Running totals of one cache (never reset by :meth:`ProgramCache.clear`)."""

    hits: int = 0
    misses: int = 0
    jit_seconds_charged: float = 0.0
    persisted_hits: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "jit_seconds_charged": self.jit_seconds_charged,
                "persisted_hits": self.persisted_hits}


class ProgramCache:
    """Tracks which programs have been JIT-compiled, per device model.

    Args:
        persist_path: Optional path of an on-disk persistence file.
            When given, previously persisted entries are loaded at
            construction (they count as warm — the cross-process cache
            hit of ``SYCL_CACHE_PERSISTENT``) and every new build is
            appended.  A missing, truncated or otherwise corrupt file
            means a *cold* cache, exactly like a real JIT cache whose
            directory was damaged: the builds recompile (and are
            charged), and the next build rewrites the file whole.  A
            corrupt load is reported through the active tracer
            (``program-cache:corrupt``), never raised — a stale cache
            file must not be able to kill a run.

    Thread-safe: shards of a device group build programs concurrently
    in principle, so entry/stat updates take a lock.
    """

    def __init__(self, persist_path: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[ProgramKey, int] = {}
        #: Keys that were warm because the persistence file carried them.
        self._persisted: set = set()
        self.stats = CacheStats()
        self.persist_path = Path(persist_path) if persist_path else None
        if self.persist_path is not None and self.persist_path.exists():
            self._load()

    # -- the one operation queues use -----------------------------------

    def build(self, key: ProgramKey, jit_seconds: float) -> float:
        """Ensure ``key``'s program exists; return the JIT cost to charge.

        Cold (first build of this key): records the entry, persists it
        when a persistence file is configured, and returns
        ``jit_seconds`` — the caller charges it to the triggering
        launch.  Warm: returns 0.0.
        """
        if jit_seconds < 0.0:
            raise ConfigurationError(
                f"jit_seconds must be >= 0, got {jit_seconds}")
        with self._lock:
            if key in self._entries:
                self._entries[key] += 1
                self.stats.hits += 1
                if key in self._persisted:
                    self.stats.persisted_hits += 1
                return 0.0
            self._entries[key] = 0
            self.stats.misses += 1
            self.stats.jit_seconds_charged += jit_seconds
            if self.persist_path is not None:
                self._save_locked()
            return jit_seconds

    def is_warm(self, key: ProgramKey) -> bool:
        """True when ``key``'s program is already compiled (no charge)."""
        with self._lock:
            return key in self._entries

    def is_profile_warm(self, device: str, layout: str,
                        precision: str,
                        backend: Optional[str] = None) -> bool:
        """Whether any program is warm for this placement profile.

        ``device`` is a :attr:`DeviceDescriptor.jit_key` (the model);
        ``layout``/``precision`` are the spelled values a
        :class:`ProgramKey` carries ("SoA", "float", ...).  Programs
        keyed with empty layout/precision (layout-agnostic kernels)
        match any requested value.  ``backend`` pins the check to one
        runtime's programs — a chain another backend compiled is a
        different artefact and never counts as warm; ``None`` matches
        any backend (pre-backend behaviour).
        """
        with self._lock:
            for key in self._entries:
                if key.device != device:
                    continue
                if backend is not None and key.backend != backend:
                    continue
                if key.layout in ("", layout) \
                        and key.precision in ("", precision):
                    return True
            return False

    # -- lifecycle -------------------------------------------------------

    def clear(self, device: Optional[str] = None) -> int:
        """Forget compiled programs (fresh-process state); returns count.

        ``device`` restricts the purge to one device model — what
        :meth:`repro.oneapi.queue.Queue.reset_warmup` uses, so one
        queue's warm-up reset does not chill a shared cache's other
        devices.  Stats are cumulative and survive.
        """
        with self._lock:
            if device is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._persisted.clear()
            else:
                doomed = [k for k in self._entries if k.device == device]
                dropped = len(doomed)
                for key in doomed:
                    del self._entries[key]
                    self._persisted.discard(key)
            return dropped

    def keys(self) -> Iterable[ProgramKey]:
        """Snapshot of the compiled program keys."""
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- persistence -----------------------------------------------------

    def _load(self) -> None:
        from ..observability.tracer import active_tracer

        try:
            with open(self.persist_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            if document.get("version") != _PERSIST_VERSION:
                raise KeyError("version")
            keys = [ProgramKey.from_dict(entry)
                    for entry in document["programs"]]
        except (OSError, ValueError, KeyError, TypeError,
                ConfigurationError) as exc:
            # Torn write, truncation, wrong file: start cold.  The next
            # cold build calls _save_locked and rewrites the file whole.
            tracer = active_tracer()
            if tracer is not None:
                tracer.instant("program-cache:corrupt", "jit",
                               path=str(self.persist_path),
                               error=f"{type(exc).__name__}: {exc}")
            return
        for key in keys:
            self._entries[key] = 0
            self._persisted.add(key)

    def _save_locked(self) -> None:
        """Write the persistence file (caller holds the lock)."""
        document = {"version": _PERSIST_VERSION,
                    "programs": [key.as_dict() for key in self._entries]}
        self.persist_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.persist_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")

    def save(self) -> Optional[Path]:
        """Explicitly write the persistence file; returns its path."""
        if self.persist_path is None:
            return None
        with self._lock:
            self._save_locked()
        return self.persist_path
