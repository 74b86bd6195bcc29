"""Child processes of the benchmark (started by ``run.py``, which sets
their environment).

``child.py setup WORKLOAD SEED SPAWNED_AT`` prepares the workload's
inputs and prints the seconds since ``SPAWNED_AT`` (the parent's
``time.time()`` just before it started this process).

``child.py pypass WORKLOAD SEED [RUN,RUN...]`` runs one repetition of
the workload (or of the named runs) and prints each run's summary,
error and engine host time; ``run.py`` starts it with
``REPRO_NATIVE=0`` for the native-versus-Python comparison.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time


def main(argv) -> int:
    command, workload, seed = argv[0], argv[1], int(argv[2])
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    if command == "setup":
        wl.prepare()
        print(json.dumps({"setup_s": time.time() - float(argv[3])}))
        return 0
    only = set(argv[3].split(",")) if len(argv) > 3 else None
    with tempfile.TemporaryDirectory() as workdir:
        runs = wl.repetition(workdir, only=only)
    print(json.dumps({
        run.name: {"summary": run.summary, "error": run.error,
                   "engine_s": run.engine_s}
        for run in runs
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
