"""Regenerate ``reference.json``: the simulated summary of every run of
every workload at the reference seeds, keyed by a hash of the run's
inputs.  Run from the repository root::

    python3 perfbench/make_reference.py

Only regenerate after a change that is meant to alter simulated
outcomes; a speed-only change must leave every summary byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, bench_env

#: The default seed plus a block of small seeds.
SEEDS = [2025] + list(range(50))


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_build" / "perfbench"
    os.environ.update(bench_env(work))
    maps = tempfile.mkdtemp(prefix="maps-", dir=work)
    os.environ["REPRO_MAPPING_CACHE_DIR"] = maps
    sys.path[:0] = [str(root / "src")]
    from workloads import WORKLOADS

    runs = {}
    try:
        for name, cls in WORKLOADS.items():
            for seed in SEEDS:
                wl = cls(seed)
                only = None
                if hasattr(wl, "jobs"):
                    only = {job.name for job in wl.jobs
                            if job.key not in runs}
                    if not only:
                        continue
                with tempfile.TemporaryDirectory(dir=work) as tmp:
                    for run in wl.repetition(tmp, only=only):
                        if run.error is not None:
                            raise RuntimeError(
                                f"{name} seed {seed} {run.name}: "
                                f"{run.error}")
                        runs.setdefault(run.key, {
                            "workload": name, "run": run.name,
                            "seed": seed, "summary": run.summary,
                        })
                print(f"{name} seed {seed}: {len(runs)} runs",
                      flush=True)
    finally:
        shutil.rmtree(maps, ignore_errors=True)
    lines = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(runs.items())
    )
    (HERE / "reference.json").write_text(
        '{"runs": {\n' + lines + "\n}}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
