#!/usr/bin/env python3
"""Checkpoint & resume: killing a long run halfway and losing nothing.

Drives the ``diurnal-flash`` scenario (slow sinusoidal load with flash
crowds) under camdn-full three ways:

1. **Uninterrupted** — the reference run.
2. **Snapshot + resume** — capture an :class:`EngineSnapshot` mid-run,
   serialize it through its versioned, content-hashed JSON envelope,
   "crash", reload in a fresh engine and resume to completion.  The
   resumed ``metric_summary()`` is byte-identical to the reference.
3. **Rolling on-disk checkpoints** — ``RunConfig(checkpoint_every_s=...)``
   writes an atomically-replaced ``checkpoint.json`` at batch
   boundaries; the last one on disk resumes byte-identically too, which
   is exactly what a SIGKILLed long campaign does on restart.

Usage::

    python examples/long_run_checkpoint.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import RunConfig, get_scenario, run
from repro.sim.snapshot import EngineSnapshot

SCENARIO = "diurnal-flash"
POLICY = "camdn-full"


def summary_bytes(result) -> str:
    return json.dumps(result.metric_summary(), sort_keys=True)


def main() -> None:
    spec = get_scenario(SCENARIO)

    # ------------------------------------------------------------------
    # 1. The uninterrupted reference run.
    # ------------------------------------------------------------------
    clean = run(spec, policy=POLICY)
    print(
        f"reference run: {clean.events_processed:,} events, "
        f"{clean.completed_inferences} completed inferences over "
        f"{clean.sim_time_s * 1e3:.0f} ms simulated"
    )

    # ------------------------------------------------------------------
    # 2. Snapshot halfway, serialize, "crash", reload, resume.
    # ------------------------------------------------------------------
    half = clean.events_processed // 2
    snapped = run(spec, policy=POLICY,
                  config=RunConfig(snapshot_at_events=half))
    snap = snapped.last_snapshot
    envelope = snap.to_json()
    print(
        f"\nsnapshot at event {snap.events_processed:,} "
        f"(t={snap.sim_time_s * 1e3:.1f} ms): "
        f"{len(envelope):,} byte envelope, schema-versioned and "
        f"SHA-256 content-hashed"
    )

    # Everything below could run in a different process, days later.
    engine = EngineSnapshot.from_json(envelope).resume()
    resumed = engine.resume_run()
    identical = summary_bytes(resumed) == summary_bytes(clean)
    print(
        f"resumed to completion: {resumed.completed_inferences} "
        f"completed; metric_summary byte-identical to the "
        f"uninterrupted run: {identical}"
    )
    assert identical

    # ------------------------------------------------------------------
    # 3. Rolling on-disk checkpoints, as a crashing campaign sees them.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        checked = run(
            spec, policy=POLICY,
            config=RunConfig(
                checkpoint_every_s=0.05,  # wall-clock cadence
                checkpoint_dir=tmp,
            ),
        )
        assert summary_bytes(checked) == summary_bytes(clean)
        path = Path(tmp) / "checkpoint.json"
        if not path.exists():
            print("\nrun finished inside one checkpoint interval "
                  "(nothing written) — identity still held")
            return
        last = EngineSnapshot.load(path)
        print(
            f"\nrolling checkpoint on disk: event "
            f"{last.events_processed:,} at t="
            f"{last.sim_time_s * 1e3:.1f} ms (atomically replaced — a "
            f"kill mid-write can never tear it)"
        )
        redone = last.resume().resume_run()
        assert summary_bytes(redone) == summary_bytes(clean)
        print(
            "resumed from the on-disk checkpoint: byte-identical "
            "again — a SIGKILL anywhere loses only wall-clock time"
        )


if __name__ == "__main__":
    main()
