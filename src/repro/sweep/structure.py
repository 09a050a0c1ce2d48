"""Structure-level cache for compile-once / evaluate-many sweeps.

The solve cache (:mod:`repro.sweep.cache`) keys on the *full* parameter
point, so a 16-point lambda grid is 16 misses -- each of which used to
re-explore an identical state space.  This cache keys on the **structure
parameters only** (queue capacities, phase counts, topology flags --
whatever the model class declares shapes its reachability graph) and
stores the expensive frozen artefact, a
:class:`~repro.pepa.compiled.CompiledSpace` for the TAGS PEPA models.
Rate-only parameters (lambda, mu, t) never enter the key, so the whole
grid shares one entry and exploration happens exactly once per
structure -- the property ``tests/sweep/test_structure_cache.py`` pins
via the ``pepa.explore.fast`` span count.

In-memory only, deliberately: the artefacts hold live numpy arrays and
component expressions, rebuilding one takes milliseconds-to-a-second,
and serialising them to disk would dwarf the solve records.  Hits and
misses are counted on the instance and as ``sweep.structure.hit`` /
``sweep.structure.miss`` obs counters; each miss's build runs inside a
``sweep.structure.build`` span.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro import obs

__all__ = ["StructureCache", "structure_cache"]


class StructureCache:
    """Keyed LRU of frozen model structures (compiled PEPA spaces).

    Keys must be hashable and should contain *only* structure-shaping
    parameters; including a rate parameter silently degrades the cache
    to one entry per point (correct, just slow).  ``maxsize`` bounds the
    number of live artefacts; least-recently-used entries are evicted.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get_or_build(self, key, builder: Callable[[], object]):
        """Return the cached structure for ``key``, building on miss.

        ``builder`` runs outside the lock (explorations can take
        seconds); two threads racing on the same key may both build, and
        the first store wins -- both get a usable artefact either way.
        """
        rec = obs.recorder()
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if value is not None:
            if rec.enabled:
                rec.add("sweep.structure.hit")
            return value
        with self._lock:
            self.misses += 1
        if rec.enabled:
            rec.add("sweep.structure.miss")
        with rec.span("sweep.structure.build") as sp:
            value = builder()
            sp.set(key=repr(key))
        with self._lock:
            if key not in self._entries:
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
            value = self._entries[key]
        return value

    def drop(self, key) -> None:
        """Forget one entry (e.g. after a refill structure mismatch)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


_global = StructureCache()


def structure_cache() -> StructureCache:
    """The process-global structure cache used by the model builders."""
    return _global
