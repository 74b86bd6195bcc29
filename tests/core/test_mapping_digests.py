"""Golden digests of the offline mapping phase.

``tests/data/mapping_digest_reference.json`` holds, for every Table I
model on every SoC in :data:`SOCS`, the SHA-256 of the model's mapping
file (canonical JSON of :func:`~repro.core.serialize.mapping_file_to_dict`)
and of its :attr:`~repro.core.prepared.PreparedModel.segments`.  Mapper
and block-planner speedups must keep every digest: they may change how a
mapping is found, never which mapping comes out.

Regenerate (only when a change *intentionally* alters mappings — this
must be called out in the change description)::

    PYTHONPATH=src REPRO_MAPPING_CACHE_DIR= \\
        python tests/core/test_mapping_digests.py
"""

import hashlib
import json
from pathlib import Path

from repro.config import KiB, MiB, CacheConfig, NPUConfig, SoCConfig
from repro.core import prepared
from repro.core.mapper.layer_mapper import LayerMapper
from repro.core.mapper.solver import SubspaceSolver
from repro.core.serialize import mapping_file_to_dict
from repro.models.zoo import MODEL_BUILDERS

REFERENCE_PATH = (
    Path(__file__).parent.parent / "data" / "mapping_digest_reference.json"
)

#: Table II (16 MiB), the fleet's 2 MiB budget device, the smallest and
#: largest Figure 8 capacities, and a small-scratchpad NPU with a 1 MiB
#: cache (the ``small_soc`` test fixture).
SOCS = {
    "table2-16MiB": SoCConfig(),
    "2MiB": SoCConfig().with_cache_bytes(2 * MiB),
    "4MiB": SoCConfig().with_cache_bytes(4 * MiB),
    "64MiB": SoCConfig().with_cache_bytes(64 * MiB),
    "small-npu-1MiB": SoCConfig(
        npu=NPUConfig(scratchpad_bytes=64 * KiB),
        num_npu_cores=4,
        cache=CacheConfig(total_bytes=1 * MiB, num_slices=2, num_ways=8,
                          npu_ways=6, page_bytes=32 * KiB),
    ),
}


def _sha256(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compute_digests() -> dict:
    """``{soc: {model: {"mapping_file": sha, "segments": sha}}}``."""
    digests = {}
    for soc_name, soc in SOCS.items():
        per_model = {}
        for key in MODEL_BUILDERS:
            model = prepared.prepare_model(key, soc)
            segments = [
                [[s.bytes_, s.reuse_distance, s.writes] for s in layer]
                for layer in model.segments
            ]
            per_model[key] = {
                "mapping_file": _sha256(
                    mapping_file_to_dict(model.mapping_file)
                ),
                "segments": _sha256(segments),
            }
        digests[soc_name] = per_model
    return digests


def test_mapping_digests_match_reference(monkeypatch):
    # Cold: no disk store and private, empty process memos.
    monkeypatch.setenv("REPRO_MAPPING_CACHE_DIR", "")
    monkeypatch.setattr(prepared, "_MODEL_CACHE", {})
    monkeypatch.setattr(LayerMapper, "_SHARED_CACHE", {})
    monkeypatch.setattr(SubspaceSolver, "_SOLVE_CACHE", {})
    reference = json.loads(REFERENCE_PATH.read_text())
    assert compute_digests() == reference


if __name__ == "__main__":
    REFERENCE_PATH.write_text(
        json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {REFERENCE_PATH}")
