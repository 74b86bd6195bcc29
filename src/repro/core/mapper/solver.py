"""Subspace solver: minimal-DRAM-access tiling per subspace.

The paper constructs "a set of disjoint problem subspaces, each of which is
an integer programming problem that takes minimal DRAM access as the
optimization objective", solves each, and keeps the best result.  After the
heuristic pruning the per-subspace problem is small enough for exact
enumeration, which plays the role of the paper's off-the-shelf solver while
staying dependency-free.

A subspace is a (pin set, innermost loop) pair.  Its cache footprint is
fixed by the pin set (plus any LBM-resident operands), never by the tile,
so a cache-usage level either admits a whole subspace or none of it, and
the subspace's best tiling is the same at every level that admits it.
The solver therefore solves each subspace once per ``(GEMM shape, LBM
flags)``: it enumerates the feasible tiles once, computes each tile's
refetch factors once per innermost loop (they do not depend on the pin
set), and takes every subspace's optimum from that table by arithmetic.
A usage level is then just a minimum over the subspace optima whose
cache footprint fits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

from ...config import NPUConfig
from ...errors import MappingError
from .dram_model import (
    LOOP_ORDERS,
    PINNABLE,
    TilingChoice,
    pinned_cache_bytes,
    tile_refetch_factors,
    tile_scratchpad_bytes,
)
from .heuristics import HeuristicRules
from .loopnest import GEMMShape

#: Deterministic work counters of the offline mapper, process-wide:
#: ``shapes_tabulated`` tile tables built (one per solved shape and LBM
#: flag pair), ``tiles_evaluated`` (tile, innermost loop) pairs whose
#: refetch factors were computed, and ``solve_memo_hits`` /
#: ``solve_memo_misses`` lookups of the solve memo.  Read them with
#: :func:`repro.core.prepared.mapper_counters`.
COUNTERS: Dict[str, int] = dict.fromkeys(
    ("shapes_tabulated", "tiles_evaluated", "solve_memo_hits",
     "solve_memo_misses"), 0,
)


@dataclass(frozen=True)
class SolvedMapping:
    """A solver result: the winning tiling and its costs."""

    choice: TilingChoice
    dram_bytes: float
    cache_bytes: int
    scratchpad_bytes: int


class SubspaceSolver:
    """Exact solver over heuristic-pruned tiling subspaces."""

    #: Process-wide memo: ``(npu, dtype, shape, lbm flags)`` -> the optimum
    #: of every subspace, in subspace order.  The optima are a pure
    #: function of the key and serve every usage limit, and the same GEMM
    #: shapes recur heavily — transformer encoders repeat one block shape
    #: 12 times, and experiment sweeps re-map the same models under many
    #: SoC variants.
    _SOLVE_CACHE: ClassVar[Dict[tuple, Tuple[SolvedMapping, ...]]] = {}

    @classmethod
    def export_solve_memo(cls) -> Dict[tuple, Tuple[SolvedMapping, ...]]:
        """Snapshot of the process-wide solve memo.

        Entries are pure ``(inputs) -> result`` pairs of picklable frozen
        dataclasses, so the snapshot can be shipped to sweep worker
        processes (via the executor initializer) to spare each worker the
        cold-start re-solve.
        """
        return dict(cls._SOLVE_CACHE)

    @classmethod
    def install_solve_memo(
        cls, entries: Dict[tuple, Tuple[SolvedMapping, ...]]
    ) -> None:
        """Merge a memo snapshot (worker-side warm-up)."""
        cls._SOLVE_CACHE.update(entries)

    def __init__(self, npu: NPUConfig, dtype_bytes: int = 1) -> None:
        self.npu = npu
        self.dtype_bytes = dtype_bytes
        self.rules = HeuristicRules(npu=npu, dtype_bytes=dtype_bytes)
        self._memo_prefix: Tuple = (npu, dtype_bytes)

    def solve(
        self,
        shape: GEMMShape,
        usage_limit_bytes: int,
        lbm_input: bool = False,
        lbm_output: bool = False,
    ) -> SolvedMapping:
        """Best tiling across all subspaces at one cache-usage level.

        Raises:
            MappingError: no feasible mapping exists (cannot happen for
                positive scratchpad capacity without LBM operands, since
                minimal PE-sized tiles always fit; guarded for safety).
        """
        best: Optional[SolvedMapping] = None
        for solved in self._subspace_optima(shape, lbm_input, lbm_output):
            if solved.cache_bytes <= usage_limit_bytes and \
                    (best is None or self._better(solved, best)):
                best = solved
        if best is None:
            raise MappingError(
                f"no feasible mapping for GEMM {shape} at "
                f"{usage_limit_bytes} B cache"
            )
        return best

    def _subspace_optima(self, shape: GEMMShape, lbm_input: bool,
                         lbm_output: bool) -> Tuple[SolvedMapping, ...]:
        """The (memoized) best tiling of every subspace of ``shape``."""
        key = self._memo_prefix + (shape, lbm_input, lbm_output)
        optima = self._SOLVE_CACHE.get(key)
        if optima is not None:
            COUNTERS["solve_memo_hits"] += 1
            return optima
        COUNTERS["solve_memo_misses"] += 1
        optima = self._tabulate(shape, lbm_input, lbm_output)
        self._SOLVE_CACHE[key] = optima
        return optima

    def _tabulate(self, shape: GEMMShape, lbm_input: bool,
                  lbm_output: bool) -> Tuple[SolvedMapping, ...]:
        """Solve every subspace from one table of the shape's tiles.

        Each subspace's DRAM traffic per tile is summed weight, input,
        output, skipping LBM-resident operands and charging a pinned
        tensor its size once — the summation order of the per-tile cost
        model, so the floats are the ones it would produce.  Within a
        subspace the cache footprint is constant, so the first tile with
        the least (traffic, scratchpad) wins.
        """
        dtype = self.dtype_bytes
        tiles = self.rules.tile_space(shape)
        COUNTERS["shapes_tabulated"] += 1
        if not tiles:
            return ()
        spads = [tile_scratchpad_bytes(tm, tn, tk, dtype)
                 for tm, tn, tk in tiles]
        sizes = (shape.weight_elems * dtype, shape.input_elems * dtype,
                 shape.output_elems * dtype)
        # Tensors that move through DRAM at all (LBM operands never do).
        streamed = (True, not lbm_input, not lbm_output)
        factors = {
            innermost: [tile_refetch_factors(shape, tm, tn, tk, innermost)
                        for tm, tn, tk in tiles]
            for innermost in LOOP_ORDERS
        }
        COUNTERS["tiles_evaluated"] += len(LOOP_ORDERS) * len(tiles)
        optima: List[SolvedMapping] = []
        for subspace in self.rules.subspaces():
            innermost = subspace.innermost
            per_tile = factors[innermost]
            dram = [0.0] * len(tiles)
            for t, tensor in enumerate(PINNABLE):
                if not streamed[t]:
                    continue
                size = sizes[t]
                if tensor in subspace.pinned:
                    dram = [d + size for d in dram]
                else:
                    dram = [d + size * f[t] for d, f in zip(dram, per_tile)]
            j = min(range(len(tiles)), key=lambda i: (dram[i], spads[i]))
            tm, tn, tk = tiles[j]
            choice = TilingChoice(
                tm=tm, tn=tn, tk=tk,
                innermost=innermost,
                pinned=subspace.pinned,
                lbm_input=lbm_input,
                lbm_output=lbm_output,
            )
            optima.append(SolvedMapping(
                choice=choice,
                dram_bytes=dram[j],
                cache_bytes=pinned_cache_bytes(shape, choice, dtype),
                scratchpad_bytes=spads[j],
            ))
        return tuple(optima)

    @staticmethod
    def _better(a: SolvedMapping, b: SolvedMapping) -> bool:
        """Primary objective: DRAM traffic; ties prefer fewer cache bytes,
        then smaller scratchpad footprints (leaves room for fusion)."""
        return (a.dram_bytes, a.cache_bytes, a.scratchpad_bytes) < \
            (b.dram_bytes, b.cache_bytes, b.scratchpad_bytes)
