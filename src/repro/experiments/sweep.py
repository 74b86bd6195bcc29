"""Parallel experiment sweep runner with a persistent result cache.

Experiment harnesses and benchmarks run grids of independent simulation
cells — one per ``(policy, scenario, QoS level, SoC variant)`` point,
where the scenario is either a classic closed-loop model mix or an
explicit declarative :class:`~repro.sim.scenario.ScenarioSpec` (dynamic
tenancy, open-loop arrivals).  Cells share no mutable state (each builds
its own scheduler, workload and engine), so they parallelize perfectly
across processes.

:func:`run_sweep` executes a list of :class:`SweepCell` descriptions and
returns one :class:`~repro.sim.engine.SimulationResult` per cell, in cell
order regardless of completion order, so results are deterministic under
any worker count.

Two cache layers remove redundant work:

* **Persistent result cache** — every cell is keyed by a stable content
  hash of its :class:`SweepCell` fields, the full
  :class:`~repro.config.SoCConfig`, and the package version (via
  :mod:`repro.core.serialize`).  Results are stored as JSON under
  ``$REPRO_SWEEP_CACHE_DIR`` (default
  ``$XDG_CACHE_HOME/camdn-repro/sweeps``); a re-run of a figure harness,
  benchmark or slow test with identical cells skips the simulation
  entirely and deserializes byte-identical results.  Disable with
  ``use_cache=False`` (the runner's ``--no-cache``) or by setting
  ``REPRO_SWEEP_CACHE_DIR`` to an empty string.  The engine is
  deterministic, so a cache hit and a fresh run are interchangeable;
  the version salt invalidates entries across releases.
* **Worker warm-up** — the parent ships its loop-nest solve memo
  (:meth:`~repro.core.mapper.solver.SubspaceSolver.export_solve_memo`)
  to every pool worker through the executor initializer, so workers skip
  the cold-start mapping re-solve for shapes the parent already solved.

On single-core hosts (or ``max_workers=1``) the sweep runs serially
in-process, which reuses the warm prepared-workload and solver caches
directly.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .. import __version__
from ..config import SoCConfig
from ..core.mapper.solver import SubspaceSolver
from ..core.serialize import (
    _write_text_durable,
    atomic_write_text,
    fault_spec_from_dict,
    fault_spec_to_dict,
    resolve_cache_dir,
    scenario_spec_from_dict,
    scenario_spec_to_dict,
    simulation_result_from_dict,
    simulation_result_to_dict,
    soc_config_from_dict,
    soc_config_to_dict,
    source_content_salt,
    stable_content_hash,
)
from ..errors import WorkloadError
from ..runconfig import RunConfig
from ..sim.engine import SimulationResult
from ..sim.faults import FaultSpec
from ..sim.scenario import ScenarioSpec
from ..sim.workload import random_model_mix
from .common import ExperimentScale, run_scenario

_LOG = logging.getLogger(__name__)

#: Environment override for the persistent cell cache location; an empty
#: value disables the cache entirely.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"

#: Cache-key schema of sweep cells.  v2: the key hashes the cell's fully
#: resolved :class:`~repro.sim.scenario.ScenarioSpec`, so entries written
#: before the scenario subsystem (or under a different lowering) can
#: never be served for a scenario cell.  v3: the key hashes the cell's
#: fault schedule, so faulted and fault-free runs of the same scenario
#: can never share an entry.
SWEEP_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class SweepCell:
    """One independent simulation cell of an experiment grid.

    A cell is either the classic closed-loop shape (``model_keys`` plus
    the steady-state window knobs) or an explicit declarative scenario
    (``scenario``); both resolve to one
    :class:`~repro.sim.scenario.ScenarioSpec` via
    :meth:`resolve_scenario`, which is what actually runs — and what the
    persistent cache key hashes.

    Attributes:
        policy: scheduler name (``"baseline"``, ``"moca"``, ``"aurora"``,
            ``"camdn-hw"``, ``"camdn-full"``).
        model_keys: one Table I abbreviation per co-located stream
            (closed-loop cells; empty when ``scenario`` is given).
        qos_scale: latency-target multiplier (``inf`` disables deadlines).
        qos_mode: enable the AuRORA-style QoS integration on CaMDN.
        scale: measurement-window scale (see :class:`ExperimentScale`;
            scenario cells scale through
            :meth:`~repro.sim.scenario.ScenarioSpec.scaled`).
        cache_bytes: overrides the sweep SoC's shared-cache capacity for
            this cell (``None`` keeps the sweep default).
        seed: seed used when the cell is built from a random model mix
            (recorded so the cell is self-describing and reproducible).
        scenario: explicit scenario for this cell (dynamic tenancy,
            open-loop arrivals); mutually exclusive with ``model_keys``.
        faults: optional :class:`~repro.sim.faults.FaultSpec` injected
            into this cell's run (fault instants scale with ``scale``,
            like the scenario window).
    """

    policy: str
    model_keys: Tuple[str, ...] = ()
    qos_scale: float = math.inf
    qos_mode: bool = False
    scale: float = 1.0
    cache_bytes: Optional[int] = None
    seed: int = field(default=2025)
    scenario: Optional[ScenarioSpec] = None
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.scenario is None and not self.model_keys:
            raise WorkloadError(
                "sweep cell needs model_keys or a scenario"
            )
        if self.scenario is not None and self.model_keys:
            raise WorkloadError(
                "sweep cell takes model_keys or a scenario, not both"
            )
        if self.scenario is not None and not math.isinf(self.qos_scale):
            raise WorkloadError(
                "scenario cells carry QoS per stream (StreamSpec."
                "qos_scale); the cell-level qos_scale only applies to "
                "model_keys cells"
            )

    @classmethod
    def random_mix(cls, policy: str, num_streams: int,
                   seed: int = 2025, **kwargs) -> "SweepCell":
        """Build a cell over a seeded random model mix (deterministic in
        ``(num_streams, seed)``)."""
        return cls(
            policy=policy,
            model_keys=tuple(random_model_mix(num_streams, seed=seed)),
            seed=seed,
            **kwargs,
        )

    @classmethod
    def from_scenario(cls, policy: str, scenario: ScenarioSpec,
                      **kwargs) -> "SweepCell":
        """Build a cell over an explicit declarative scenario."""
        return cls(policy=policy, scenario=scenario, **kwargs)

    def resolve_scenario(self) -> ScenarioSpec:
        """The fully resolved scenario this cell simulates."""
        if self.scenario is not None:
            return self.scenario.scaled(self.scale)
        scale = ExperimentScale(scale=self.scale)
        return ScenarioSpec.closed_loop(
            self.model_keys,
            duration_s=scale.duration_s,
            warmup_s=scale.warmup_s,
            qos_scale=self.qos_scale,
        )

    def resolve_faults(self) -> Optional[FaultSpec]:
        """The cell's fault schedule at the cell's scale (or ``None``)."""
        if self.faults is None:
            return None
        return self.faults.scaled(self.scale)

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (part of the cache key).

        The scenario itself is not embedded here: :func:`cell_cache_key`
        hashes the cell's *resolved* scenario alongside this dict, which
        already captures the arrival dynamics exactly once.
        """
        return {
            "policy": self.policy,
            "model_keys": list(self.model_keys),
            "qos_scale": self.qos_scale,
            "qos_mode": self.qos_mode,
            "scale": self.scale,
            "cache_bytes": self.cache_bytes,
            "seed": self.seed,
            "faults": (
                fault_spec_to_dict(self.faults)
                if self.faults is not None else None
            ),
        }


# ----------------------------------------------------------------------
# Persistent cell cache
# ----------------------------------------------------------------------

def default_cache_dir() -> Optional[Path]:
    """Resolved cache directory, or ``None`` when disabled via env."""
    return resolve_cache_dir(CACHE_DIR_ENV, "sweeps")


def cell_cache_key(cell: SweepCell, soc: SoCConfig) -> str:
    """Stable content hash identifying one cell on one SoC.

    Salted with the package version *and* a digest of the package's own
    source files, so any code edit — versioned or not — invalidates
    every cached result instead of silently replaying stale simulations.
    The key also hashes the cell's fully resolved scenario (arrival
    processes, tenancy timeline, per-stream QoS), so two cells that
    differ only in arrival dynamics can never share an entry, and
    pre-scenario cache entries (schema v1) are unreachable.
    """
    return stable_content_hash({
        "sweep_schema_version": SWEEP_SCHEMA_VERSION,
        "repro_version": __version__,
        "source_salt": source_content_salt(),
        "cell": cell.to_dict(),
        "scenario": scenario_spec_to_dict(cell.resolve_scenario()),
        "soc": soc_config_to_dict(soc),
    })


def clear_sweep_cache(cache_dir: Optional[Path] = None) -> int:
    """Delete all cached cell results; returns the number removed."""
    cache_dir = cache_dir or default_cache_dir()
    if cache_dir is None or not cache_dir.is_dir():
        return 0
    removed = 0
    for entry in cache_dir.glob("*.json"):
        try:
            entry.unlink()
            removed += 1
        except OSError:
            continue
    return removed


def _load_cached(path: Path) -> Optional[SimulationResult]:
    """A cached result, or ``None`` on any miss/corruption.

    A missing entry is the normal cold-cache case.  An entry that exists
    but cannot be parsed (truncated write, disk corruption, stale bytes
    from a crashed process) is logged, unlinked and treated as a miss —
    the cell re-simulates and the entry is rebuilt transparently.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        _LOG.warning("sweep cache entry %s unreadable (%s); ignoring",
                     path.name, exc)
        return None
    try:
        # Decoding inside the corruption guard: arbitrary on-disk bytes
        # (a torn write is not guaranteed to stay valid UTF-8).
        return simulation_result_from_dict(
            json.loads(raw.decode("utf-8"))
        )
    except Exception as exc:
        _LOG.warning(
            "sweep cache entry %s corrupt (%s); invalidating and "
            "re-simulating", path.name, exc,
        )
        try:
            path.unlink()
        except OSError:
            pass
        return None


def _store_cached(path: Path, result: SimulationResult) -> None:
    """Best-effort atomic write of one cell result."""
    atomic_write_text(path, json.dumps(simulation_result_to_dict(result)))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

#: Statistics of the most recent run_sweep call in this process (the
#: runner surfaces these as its events/sec observability line).
_LAST_STATS: Dict[str, float] = {}

#: Per-cell failure records of the most recent run_sweep call: cells
#: whose simulation raised twice (initial attempt plus the serial
#: retry).  Each entry: ``{"index", "policy", "error"}``.
_LAST_FAILURES: List[Dict[str, object]] = []

#: Pause before retrying a failed cell serially in the parent, giving
#: transient conditions (a dying worker, memory pressure) time to clear.
RETRY_BACKOFF_S = 0.05


def last_sweep_stats() -> Dict[str, float]:
    """``{cells, cached_cells, events, sim_wall_s, events_per_s,
    failed_cells}`` of the latest :func:`run_sweep` call (empty before
    the first sweep)."""
    return dict(_LAST_STATS)


def last_sweep_failures() -> List[Dict[str, object]]:
    """Cells of the latest sweep that failed both their initial run and
    the serial retry (empty on a fully successful sweep)."""
    return [dict(f) for f in _LAST_FAILURES]


def reset_sweep_stats() -> None:
    """Clear the latest-sweep statistics (callers that need to attribute
    stats to one harness invocation reset before it runs)."""
    _LAST_STATS.clear()
    _LAST_FAILURES.clear()


def _run_cell(args: tuple) -> SimulationResult:
    """Execute one cell (top-level so it pickles for worker processes).

    The cell's scenario is resolved from the spec alone (seeded arrival
    randomness included), so a cell simulates identically in-process or
    on any pool worker.  ``deadline_s`` arms the engine's wall-clock
    watchdog: a cell that hangs is killed by a diagnostic
    :class:`~repro.errors.SimulationError` instead of stalling the
    sweep (the campaign runner retries it with backoff).
    """
    cell, soc, deadline_s = args
    if cell.cache_bytes is not None:
        soc = soc.with_cache_bytes(cell.cache_bytes)
    return run_scenario(
        cell.resolve_scenario(), soc, cell.policy,
        config=RunConfig(
            qos_mode=cell.qos_mode, faults=cell.resolve_faults(),
            max_wall_s=deadline_s,
        ),
    )


def _run_cell_shard(args: tuple) -> List[SimulationResult]:
    """Execute a batch of cells in one worker dispatch.

    Fleet grids run thousands of small cells; shipping them one future
    at a time drowns the simulation in pickling and IPC overhead.  A
    shard amortizes the round trip while every cell still simulates
    through :func:`_run_cell`, so results are byte-identical to
    unsharded execution.
    """
    shard, soc, deadline_s = args
    return [_run_cell((cell, soc, deadline_s)) for cell in shard]


def _warm_worker(solve_memo) -> None:
    """Pool-worker initializer: install the parent's solve memo."""
    SubspaceSolver.install_solve_memo(solve_memo)


def _attempt_cell(item: tuple
                  ) -> Tuple[Optional[SimulationResult], Optional[str]]:
    """Run one cell in-process, capturing any exception as a string."""
    try:
        return _run_cell(item), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_sweep(
    cells: Sequence[SweepCell],
    soc: Optional[SoCConfig] = None,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
    shard_size: Optional[int] = None,
) -> List[Optional[SimulationResult]]:
    """Run every cell and return results in cell order.

    Args:
        cells: the grid points to simulate.
        soc: base hardware configuration (defaults to paper Table II);
            per-cell ``cache_bytes`` overrides apply on top.
        max_workers: process count.  ``None`` picks
            ``min(len(cells), cpu_count)``; values <= 1 (or a single cell,
            or a single-core host) run serially in-process.
        use_cache: consult/populate the persistent cell cache.
        cache_dir: cache location override (default: see
            :func:`default_cache_dir` / ``REPRO_SWEEP_CACHE_DIR``).
        shard_size: batch this many cells per worker dispatch (fleet
            grids of thousands of tiny cells amortize pickling/IPC this
            way).  ``None`` or 1 keeps per-cell dispatch.  Results are
            byte-identical either way; a failing shard falls back to
            per-cell execution so one bad cell cannot take down its
            shard-mates.

    Each cell is simulated by a deterministic closed-loop engine run, so
    the results are identical whichever worker executes them — or whether
    they come from the cache at all.

    The sweep is fault tolerant: a cell whose simulation raises — or
    whose pool worker dies — does not abort the sweep.  The failure is
    captured, the cell is retried once serially in the parent after a
    short backoff, and a cell that fails twice is reported through
    :func:`last_sweep_failures` (and the ``failed_cells`` stat) with a
    ``None`` placeholder at its position in the returned list.  Fully
    successful sweeps (the normal case) contain no ``None`` entries.
    """
    soc = soc or SoCConfig()
    cells = list(cells)
    results: List[Optional[SimulationResult]] = [None] * len(cells)

    cache_path: Optional[Path] = None
    keys: List[Optional[str]] = [None] * len(cells)
    if use_cache:
        cache_path = cache_dir or default_cache_dir()
    if cache_path is not None:
        for i, cell in enumerate(cells):
            keys[i] = cell_cache_key(cell, soc)
            results[i] = _load_cached(cache_path / f"{keys[i]}.json")

    misses = [i for i, r in enumerate(results) if r is None]
    _LAST_FAILURES.clear()
    if misses:
        work = [(cells[i], soc, None) for i in misses]
        if max_workers is None:
            max_workers = min(len(work), os.cpu_count() or 1)
        fresh: List[Optional[SimulationResult]]
        errors: List[Optional[str]]
        if max_workers <= 1 or len(work) <= 1:
            fresh, errors = [], []
            for item in work:
                result, error = _attempt_cell(item)
                fresh.append(result)
                errors.append(error)
        else:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_warm_worker,
                initargs=(SubspaceSolver.export_solve_memo(),),
            ) as pool:
                if shard_size is not None and shard_size > 1:
                    # Batched dispatch: one future per shard.  A shard
                    # that raises (one bad cell, a dying worker) marks
                    # all its cells failed here; the per-cell serial
                    # retry below then isolates the real culprit.
                    shards = [work[k:k + shard_size]
                              for k in range(0, len(work), shard_size)]
                    futures = [
                        pool.submit(
                            _run_cell_shard,
                            ([c for c, _, _ in shard], soc, None),
                        )
                        for shard in shards
                    ]
                    fresh, errors = [], []
                    for shard, future in zip(shards, futures):
                        try:
                            batch = future.result()
                            fresh.extend(batch)
                            errors.extend([None] * len(batch))
                        except Exception as exc:
                            fresh.extend([None] * len(shard))
                            errors.extend(
                                [f"{type(exc).__name__}: {exc}"]
                                * len(shard)
                            )
                else:
                    # Per-cell futures (not pool.map) so one raising
                    # cell — or a worker death breaking the pool —
                    # surfaces as that cell's failure instead of
                    # aborting the whole sweep.
                    futures = [pool.submit(_run_cell, item)
                               for item in work]
                    fresh, errors = [], []
                    for future in futures:
                        try:
                            fresh.append(future.result())
                            errors.append(None)
                        except Exception as exc:
                            fresh.append(None)
                            errors.append(f"{type(exc).__name__}: {exc}")
        # One serial retry in the parent: transient failures (a worker
        # OOM-killed, a flaky filesystem) recover; deterministic ones
        # fail again and are reported instead of raised.
        for j, i in enumerate(misses):
            if fresh[j] is not None:
                continue
            _LOG.warning(
                "sweep cell %d (%s) failed: %s; retrying serially",
                i, cells[i].policy, errors[j],
            )
            time.sleep(RETRY_BACKOFF_S)
            result, error = _attempt_cell(work[j])
            if result is not None:
                fresh[j] = result
                continue
            _LOG.warning("sweep cell %d (%s) failed twice: %s",
                         i, cells[i].policy, error)
            _LAST_FAILURES.append({
                "index": i,
                "policy": cells[i].policy,
                "error": error,
            })
        for i, result in zip(misses, fresh):
            if result is None:
                continue
            results[i] = result
            if cache_path is not None:
                _store_cached(cache_path / f"{keys[i]}.json", result)

    final = [r for r in results if r is not None]
    done = [results[i] for i in misses if results[i] is not None]
    fresh_wall = sum(r.wall_time_s for r in done)
    fresh_events = sum(r.events_processed for r in done)
    _LAST_STATS.clear()
    _LAST_STATS.update({
        "cells": len(final),
        "cached_cells": len(cells) - len(misses),
        "events": sum(r.events_processed for r in final),
        "sim_wall_s": fresh_wall,
        "events_per_s":
            fresh_events / fresh_wall if fresh_wall > 0 else 0.0,
        "failed_cells": float(len(_LAST_FAILURES)),
    })
    return results


# ----------------------------------------------------------------------
# Crash-safe campaign runner (write-ahead journal + resume)
# ----------------------------------------------------------------------

#: Journal format version; bump on any record-shape change.
CAMPAIGN_SCHEMA_VERSION = 1

#: Cap on serial retry attempts per cell after its first failure.
DEFAULT_CELL_RETRIES = 1


def _retry_backoff_s(index: int, attempt: int) -> float:
    """Jittered, deterministic backoff before retrying one cell.

    Seeded by (cell, attempt) so concurrent campaigns de-synchronize
    their retries without making any run irreproducible.
    """
    rng = random.Random(f"retry:{index}:{attempt}")
    return RETRY_BACKOFF_S * attempt * rng.uniform(0.5, 1.5)


def _cell_to_journal(cell: SweepCell) -> dict:
    data = cell.to_dict()
    data["scenario"] = (
        scenario_spec_to_dict(cell.scenario)
        if cell.scenario is not None else None
    )
    return data


def _cell_from_journal(data: dict) -> SweepCell:
    scenario = data.get("scenario")
    faults = data.get("faults")
    return SweepCell(
        policy=data["policy"],
        model_keys=tuple(data["model_keys"]),
        qos_scale=data["qos_scale"],
        qos_mode=data["qos_mode"],
        scale=data["scale"],
        cache_bytes=data["cache_bytes"],
        seed=data["seed"],
        scenario=(
            scenario_spec_from_dict(scenario)
            if scenario is not None else None
        ),
        faults=(
            fault_spec_from_dict(faults) if faults is not None else None
        ),
    )


class CampaignJournal:
    """Append-only, fsync'd write-ahead journal of one sweep campaign.

    The journal is a JSONL file.  The first record is the header — the
    full cell grid and SoC, so a resume needs nothing but the journal.
    Every later record is one of:

    * ``start`` — appended (and fsync'd) *before* a cell attempt runs;
    * ``done`` — appended *after* the cell's result file is durably
      committed to the ``<stem>.cells/`` sidecar directory (write
      temp + fsync + atomic rename), so a ``done`` record always points
      at a complete result;
    * ``failed`` — the cell exhausted its retries.

    Crash consistency: records are append-only and individually fsync'd,
    so a SIGKILL at any instant leaves a valid record prefix plus at
    most one torn final line, which :meth:`read` tolerates.  A cell with
    a ``start`` but no ``done`` was in flight at the crash and is simply
    re-run on resume — cells are deterministic, so the merged grid is
    byte-identical to an uninterrupted campaign.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    @property
    def result_dir(self) -> Path:
        """Sidecar directory holding per-cell committed results."""
        return self.path.with_name(self.path.stem + ".cells")

    def _append(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    @classmethod
    def create(cls, path, cells: Sequence[SweepCell],
               soc: SoCConfig) -> "CampaignJournal":
        """Start a new journal (refusing to clobber an existing one)."""
        journal = cls(path)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        if journal.path.exists():
            raise WorkloadError(
                f"campaign journal {journal.path} already exists; "
                f"resume it (--resume) or remove it first"
            )
        journal._append({
            "kind": "header",
            "campaign_schema_version": CAMPAIGN_SCHEMA_VERSION,
            "repro_version": __version__,
            "soc": soc_config_to_dict(soc),
            "cells": [_cell_to_journal(cell) for cell in cells],
        })
        return journal

    def record_start(self, index: int, attempt: int) -> None:
        self._append({"kind": "start", "index": index,
                      "attempt": attempt})

    def record_done(self, index: int, result: SimulationResult) -> None:
        # Write-ahead ordering: the result is durable on disk before the
        # journal record that marks the cell complete.
        self.result_dir.mkdir(parents=True, exist_ok=True)
        path = self.result_dir / f"{index}.json"
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            _write_text_durable(
                tmp,
                json.dumps(simulation_result_to_dict(result),
                           sort_keys=True),
            )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._append({"kind": "done", "index": index})

    def record_failed(self, index: int, error: str) -> None:
        self._append({"kind": "failed", "index": index, "error": error})

    def load_result(self, index: int) -> Optional[SimulationResult]:
        """The committed result of one cell, or ``None``."""
        return _load_cached(self.result_dir / f"{index}.json")

    def read(self) -> tuple:
        """Parse the journal: ``(cells, soc, done, failed, started)``.

        ``done`` maps cell index to its reloaded result; ``failed`` maps
        index to the last error string; ``started`` is every index with
        at least one attempt on record.  A torn final line (crash
        mid-append) ends the readable prefix and is ignored.

        Raises:
            WorkloadError: the file is unreadable, not a campaign
                journal, or an unsupported schema version.
        """
        try:
            raw = self.path.read_text(encoding="utf-8",
                                      errors="replace")
        except OSError as exc:
            raise WorkloadError(
                f"cannot read campaign journal {self.path}: {exc}"
            ) from exc
        records = []
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                # Append-only file: everything before the torn tail is
                # intact; the interrupted attempt simply re-runs.
                break
        if not records or not isinstance(records[0], dict) \
                or records[0].get("kind") != "header":
            raise WorkloadError(
                f"{self.path} is not a campaign journal"
            )
        header = records[0]
        version = header.get("campaign_schema_version")
        if version != CAMPAIGN_SCHEMA_VERSION:
            raise WorkloadError(
                f"unsupported campaign journal schema {version!r} "
                f"(expected {CAMPAIGN_SCHEMA_VERSION})"
            )
        cells = [_cell_from_journal(d) for d in header["cells"]]
        soc = soc_config_from_dict(header["soc"])
        done: Dict[int, SimulationResult] = {}
        failed: Dict[int, str] = {}
        started = set()
        for rec in records[1:]:
            kind = rec.get("kind")
            index = rec.get("index")
            if not isinstance(index, int) or not 0 <= index < len(cells):
                continue
            if kind == "start":
                started.add(index)
                failed.pop(index, None)
            elif kind == "done":
                # Dedupe: repeated resume cycles append a fresh ``done``
                # per cell each time (cache hits re-journal).  Loading
                # the result file once per *cell*, not once per record,
                # keeps replay O(cells) however long the journal grows.
                if index not in done:
                    result = self.load_result(index)
                    if result is not None:
                        done[index] = result
            elif kind == "failed":
                failed[index] = str(rec.get("error", ""))
        return cells, soc, done, failed, started


def run_campaign(
    cells: Sequence[SweepCell],
    journal_path,
    soc: Optional[SoCConfig] = None,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    deadline_s: Optional[float] = None,
    retries: int = DEFAULT_CELL_RETRIES,
) -> List[Optional[SimulationResult]]:
    """Run a cell grid under a crash-safe write-ahead journal.

    Semantically :func:`run_sweep` plus durability: every cell start and
    completion is journaled (see :class:`CampaignJournal`), each result
    is committed atomically as it lands, and a campaign killed at any
    instant resumes from the journal with :func:`resume_campaign`,
    skipping completed cells and re-running in-flight ones — producing a
    result grid byte-identical to an uninterrupted campaign.

    Args:
        cells: the grid points to simulate.
        journal_path: where to write the journal (must not exist yet);
            results commit to the ``<stem>.cells/`` sidecar directory.
        soc: base hardware configuration (defaults to paper Table II).
        max_workers: process count (as :func:`run_sweep`).
        use_cache: consult/populate the persistent cell cache; hits are
            journaled like computed results.
        deadline_s: per-cell wall-clock watchdog — a cell exceeding it
            is killed (diagnostic engine error) and retried with
            jittered backoff like any other failure.
        retries: serial retry attempts per failed cell.
    """
    soc = soc or SoCConfig()
    cells = list(cells)
    journal = CampaignJournal.create(journal_path, cells, soc)
    return _drive_campaign(journal, cells, soc, {}, max_workers,
                           use_cache, deadline_s, retries)


def resume_campaign(
    journal_path,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    deadline_s: Optional[float] = None,
    retries: int = DEFAULT_CELL_RETRIES,
) -> List[Optional[SimulationResult]]:
    """Resume a crashed (or previously failed) campaign from its journal.

    Completed cells are served from their committed result files;
    in-flight and failed cells re-run.  Cells are deterministic, so the
    merged grid is byte-identical to an uninterrupted campaign.

    Raises:
        WorkloadError: ``journal_path`` is not a readable campaign
            journal.
    """
    journal = CampaignJournal(journal_path)
    cells, soc, done, _failed, _started = journal.read()
    return _drive_campaign(journal, cells, soc, done, max_workers,
                           use_cache, deadline_s, retries)


def _drive_campaign(
    journal: CampaignJournal,
    cells: List[SweepCell],
    soc: SoCConfig,
    done: Dict[int, SimulationResult],
    max_workers: Optional[int],
    use_cache: bool,
    deadline_s: Optional[float],
    retries: int,
) -> List[Optional[SimulationResult]]:
    results: List[Optional[SimulationResult]] = [
        done.get(i) for i in range(len(cells))
    ]
    recovered = sum(1 for r in results if r is not None)

    cache_path = default_cache_dir() if use_cache else None
    keys: List[Optional[str]] = [None] * len(cells)
    if cache_path is not None:
        for i, cell in enumerate(cells):
            if results[i] is not None:
                continue
            keys[i] = cell_cache_key(cell, soc)
            cached = _load_cached(cache_path / f"{keys[i]}.json")
            if cached is not None:
                journal.record_start(i, 0)
                journal.record_done(i, cached)
                results[i] = cached

    pending = [i for i, r in enumerate(results) if r is None]
    _LAST_FAILURES.clear()
    if pending:
        work = {i: (cells[i], soc, deadline_s) for i in pending}

        def settle(i: int, result, error) -> None:
            # Commit (or retry) one cell the moment its attempt ends —
            # a crash loses at most the cells literally in flight.
            for attempt in range(1, retries + 1):
                if result is not None:
                    break
                _LOG.warning(
                    "campaign cell %d (%s) failed: %s; retry %d/%d",
                    i, cells[i].policy, error, attempt, retries,
                )
                time.sleep(_retry_backoff_s(i, attempt))
                journal.record_start(i, attempt)
                result, error = _attempt_cell(work[i])
            if result is not None:
                journal.record_done(i, result)
                results[i] = result
                if cache_path is not None and keys[i] is not None:
                    _store_cached(cache_path / f"{keys[i]}.json",
                                  result)
            else:
                journal.record_failed(i, error)
                _LAST_FAILURES.append({
                    "index": i,
                    "policy": cells[i].policy,
                    "error": error,
                })

        workers = max_workers
        if workers is None:
            workers = min(len(pending), os.cpu_count() or 1)
        if workers <= 1 or len(pending) <= 1:
            for i in pending:
                journal.record_start(i, 0)
                result, error = _attempt_cell(work[i])
                settle(i, result, error)
        else:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_warm_worker,
                initargs=(SubspaceSolver.export_solve_memo(),),
            ) as pool:
                futures = {}
                for i in pending:
                    # The start record hits the disk before the attempt
                    # is submitted: a crash during the cell leaves it
                    # visibly in flight, so resume re-runs it.
                    journal.record_start(i, 0)
                    futures[pool.submit(_run_cell, work[i])] = i
                for future in as_completed(futures):
                    i = futures[future]
                    try:
                        result, error = future.result(), None
                    except Exception as exc:
                        result, error = (
                            None, f"{type(exc).__name__}: {exc}"
                        )
                    settle(i, result, error)
        # Completion order is nondeterministic under a pool; report
        # failures in cell order.
        _LAST_FAILURES.sort(key=lambda f: f["index"])

    final = [r for r in results if r is not None]
    fresh = [results[i] for i in pending if results[i] is not None]
    fresh_wall = sum(r.wall_time_s for r in fresh)
    fresh_events = sum(r.events_processed for r in fresh)
    _LAST_STATS.clear()
    _LAST_STATS.update({
        "cells": len(final),
        "cached_cells": len(cells) - len(pending) - recovered,
        "recovered_cells": float(recovered),
        "events": sum(r.events_processed for r in final),
        "sim_wall_s": fresh_wall,
        "events_per_s":
            fresh_events / fresh_wall if fresh_wall > 0 else 0.0,
        "failed_cells": float(len(_LAST_FAILURES)),
    })
    return results
