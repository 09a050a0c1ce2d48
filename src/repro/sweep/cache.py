"""Content-addressed caching of steady-state solves.

A solve is identified by a **stable hash** of ``(model class, constructor
parameters, solver method, tolerance, solver revision)`` -- not by object
identity -- so the same parameter point is recognised across figure
functions, optimiser probes, processes and (with the disk layer)
interpreter runs.  The cached value is a :class:`SolveRecord`: the
derived :class:`~repro.models.metrics.QueueMetrics` plus solver
diagnostics.

Two layers:

* an in-memory LRU (``maxsize`` records, oldest-used evicted), and
* an optional on-disk layer (``disk_dir``): one JSON file per key
  (``<key>.json``), written atomically (tmp file + rename).  JSON holds
  only numbers, strings and lists, so loading a file from a shared cache
  directory can never run code; ``json`` round-trips every float exactly,
  ``inf`` included.  A corrupt or unreadable file is
  treated as a miss -- the solve is simply recomputed and the file
  rewritten -- so a killed run can never poison future runs.  A file
  that *exists but fails to load* is additionally **quarantined**: moved
  aside to ``<key>.corrupt`` (counted in :attr:`SolveCache.corrupt` and
  as a ``cache.corrupt`` obs event) so the evidence survives for
  debugging instead of being silently overwritten by the recompute.

Parameters that cannot be canonicalised (callables such as
``TagsExponential.t_of_q1``) raise :class:`UncacheableParams`; the sweep
engine catches this and solves the point without caching.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.ctmc.steady import SOLVER_REVISION
from repro.models.metrics import QueueMetrics

__all__ = ["UncacheableParams", "SolveRecord", "SolveCache", "cache_key"]


class UncacheableParams(TypeError):
    """Raised when a parameter value has no stable canonical form."""


def _canon(value):
    """Reduce ``value`` to a deterministic, hashable representation."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly; canonicalise -0.0 and strip
        # numpy scalar types (np.float64 subclasses float but reprs
        # differently under numpy >= 2)
        return repr(float(value) + 0.0)
    if isinstance(value, (np.bool_, np.integer)):
        return _canon(value.item())
    if isinstance(value, np.floating):
        return _canon(float(value))
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, tuple(_canon(v) for v in value.ravel()))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canon(v) for v in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(sorted((str(k), _canon(v)) for k, v in value.items())),
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__qualname__, _canon(dataclasses.asdict(value)))
    # plain objects (e.g. PhaseType distributions): canonicalise their
    # attribute dict -- recursion raises UncacheableParams on anything odd
    attrs = getattr(value, "__dict__", None)
    if attrs:
        return (type(value).__qualname__, _canon(attrs))
    raise UncacheableParams(
        f"parameter of type {type(value).__qualname__} has no stable "
        f"canonical form: {value!r}"
    )


def cache_key(
    model_cls: type,
    params: dict,
    method: str,
    tol: float,
    engine: "str | None" = None,
) -> str:
    """Stable content hash identifying one steady-state solve.

    Any change to the model class, any constructor parameter, the solver
    method or the tolerance yields a different key.  ``engine`` is the
    model's solve-engine tag (``SOLVE_ENGINE`` class attribute, e.g.
    ``"pepa-compiled-v2"``): bumping it when an engine's numerics change
    retires every stale disk entry instead of silently mixing results
    computed by different code paths.  :data:`~repro.ctmc.steady.
    SOLVER_REVISION` rides along the same way for the steady-state
    solvers themselves, so a record written by an older solver is a miss.
    """
    token = (
        f"{model_cls.__module__}.{model_cls.__qualname__}",
        _canon(dict(params)),
        str(method),
        repr(float(tol)),
        None if engine is None else str(engine),
        SOLVER_REVISION,
    )
    return hashlib.sha256(repr(token).encode()).hexdigest()


@dataclass(frozen=True)
class SolveRecord:
    """One cached solve: metrics and solver diagnostics."""

    metrics: QueueMetrics
    method: str
    iterations: "int | None"
    residual: float
    wall_time: float

    def to_json(self) -> str:
        """Serialise to JSON (numpy scalars become Python numbers)."""
        fields = dataclasses.asdict(self)
        return json.dumps(fields, default=lambda v: v.item())

    @classmethod
    def from_json(cls, text: str) -> "SolveRecord":
        """Rebuild a record written by :meth:`to_json`.

        Raises ``ValueError``, ``KeyError``, ``TypeError`` or
        ``AttributeError`` on anything that is not such a record.
        """
        fields = json.loads(text)
        m = fields.pop("metrics")
        for name in ("mean_jobs_per_node", "loss_per_node", "utilisation"):
            m[name] = tuple(m[name])
        return cls(metrics=QueueMetrics(**m), **fields)


@dataclass
class SolveCache:
    """Two-layer (memory LRU + optional disk) content-addressed cache.

    Parameters
    ----------
    maxsize :
        Maximum number of records kept in memory; least-recently-used
        records are evicted first.  Evicted records remain on disk when a
        ``disk_dir`` is configured.
    disk_dir :
        Optional directory for the persistent layer.  Created on first
        write.  Corrupt entries are quarantined to ``<key>.corrupt`` and
        recomputed.
    """

    maxsize: int = 1024
    disk_dir: "str | os.PathLike | None" = None
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    _mem: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def __post_init__(self) -> None:
        if self.maxsize < 1:
            raise ValueError("maxsize must be >= 1")

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(os.fspath(self.disk_dir), f"{key}.json")

    def get(self, key: str) -> "SolveRecord | None":
        """Return the cached record for ``key``, or None (counted as a
        miss).  Disk hits are promoted into the memory layer."""
        rec = self._mem.get(key)
        if rec is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            return rec
        if self.disk_dir is not None:
            path = self._path(key)
            try:
                with open(path, encoding="utf-8") as fh:
                    rec = SolveRecord.from_json(fh.read())
            except FileNotFoundError:
                rec = None  # plain miss
            except (OSError, ValueError, KeyError, TypeError, AttributeError):
                rec = None  # corrupt: quarantine the file, then recompute
                self._quarantine(path)
            if rec is not None:
                self._remember(key, rec)
                self.hits += 1
                return rec
        self.misses += 1
        return None

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (``<key>.corrupt``) and count it.

        The quarantined copy preserves the bad bytes for post-mortems; a
        later :meth:`put` of the same key recomputes and rewrites the
        live ``.json`` untouched by the quarantine.  Failing to move the
        file (e.g. a read-only cache dir) degrades to the old
        treat-as-miss behaviour.
        """
        self.corrupt += 1
        rec = obs.recorder()
        if rec.enabled:
            rec.add("cache.corrupt")
        try:
            os.replace(path, path[: -len(".json")] + ".corrupt")
        except OSError:
            pass

    def put(self, key: str, record: SolveRecord) -> None:
        """Store ``record`` in memory (and on disk, when configured)."""
        self._remember(key, record)
        if self.disk_dir is not None:
            os.makedirs(self.disk_dir, exist_ok=True)
            # atomic write: a reader never sees a half-written file
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(record.to_json())
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def _remember(self, key: str, record: SolveRecord) -> None:
        self._mem[key] = record
        self._mem.move_to_end(key)
        while len(self._mem) > self.maxsize:
            self._mem.popitem(last=False)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: str) -> bool:
        """Whether a record is stored for ``key``, in memory or on disk
        (uncounted; :meth:`get` reads it)."""
        if key in self._mem:
            return True
        return self.disk_dir is not None and os.path.exists(self._path(key))

    def clear(self, disk: bool = False) -> None:
        """Drop the memory layer (and the disk layer if ``disk=True``);
        resets the hit/miss counters."""
        self._mem.clear()
        self.hits = self.misses = 0
        if disk and self.disk_dir is not None and os.path.isdir(self.disk_dir):
            for name in os.listdir(self.disk_dir):
                if name.endswith((".json", ".corrupt")):
                    try:
                        os.unlink(os.path.join(self.disk_dir, name))
                    except OSError:
                        pass
