"""Tests for the heuristic-solver-hybrid layer mapper (Section III-C)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KiB, MiB, NPUConfig, SoCConfig
from repro.core import prepared
from repro.core.mapper.dram_model import (
    TilingChoice,
    dram_traffic_bytes,
    pinned_cache_bytes,
    refetch_factors,
    scratchpad_bytes,
)
from repro.core.mapper.heuristics import HeuristicRules
from repro.core.mapper.layer_mapper import DEFAULT_USAGE_LEVELS, LayerMapper
from repro.core.mapper.loopnest import GEMMShape, tile_candidates, trip_count
from repro.core.mapper.solver import COUNTERS as SOLVER_COUNTERS
from repro.core.mapper.solver import SolvedMapping, SubspaceSolver
from repro.core.prepared import clear_prepared_caches, mapper_counters
from repro.errors import MappingError
from repro.experiments.fig7_speedup import SPEEDUP_WORKLOAD
from repro.models.layers import conv2d, matmul
from repro.models.zoo import build_model


class TestLoopnest:
    def test_trip_count_ceil(self):
        assert trip_count(100, 32) == 4

    def test_tile_candidates_aligned(self):
        tiles = tile_candidates(100, 32)
        assert 100 in tiles
        for tile in tiles:
            assert tile == 100 or tile % 32 == 0

    def test_small_dim_single_candidate(self):
        assert tile_candidates(16, 32) == [16]

    def test_gemm_shape_of_conv_uses_actual_footprints(self):
        layer = conv2d("c", 56, 56, 64, 128, kernel=3)
        shape = GEMMShape.of(layer)
        # im2col would inflate the input by 9x; the shape must carry the
        # true activation footprint.
        assert shape.input_elems == 56 * 56 * 64
        assert shape.weight_elems == layer.weight_elems

    def test_gemm_shape_of_attention_moves_operand_to_weight_stream(self):
        from repro.models.layers import attention_matmul

        layer = attention_matmul("a", 128, 64, 12)
        shape = GEMMShape.of(layer)
        assert shape.weight_elems == 12 * 64 * 128
        assert shape.input_elems + shape.weight_elems == layer.input_elems


class TestDramModel:
    def test_refetch_innermost_m_saves_weights(self):
        shape = GEMMShape(m=1024, n=512, k=512)
        choice = TilingChoice(tm=128, tn=128, tk=128, innermost="m")
        factors = refetch_factors(shape, choice)
        assert factors["weight"] == 1
        assert factors["input"] == trip_count(512, 128)

    def test_output_partial_sum_traffic(self):
        # Multiple output tiles evict each other between k iterations.
        shape = GEMMShape(m=256, n=256, k=512)
        choice = TilingChoice(tm=128, tn=256, tk=128, innermost="m")
        factors = refetch_factors(shape, choice)
        assert factors["output"] == 2 * 4 - 1

    def test_single_output_tile_never_spills(self):
        # One output tile accumulates in scratchpad across the whole
        # reduction regardless of loop order (validated by repro.core.isa).
        shape = GEMMShape(m=256, n=256, k=512)
        choice = TilingChoice(tm=256, tn=256, tk=128, innermost="m")
        assert refetch_factors(shape, choice)["output"] == 1

    def test_single_k_tile_writes_once(self):
        shape = GEMMShape(m=256, n=256, k=128)
        choice = TilingChoice(tm=64, tn=64, tk=128, innermost="n")
        assert refetch_factors(shape, choice)["output"] == 1

    def test_pinning_reduces_traffic_to_compulsory(self):
        shape = GEMMShape(m=1024, n=512, k=512)
        choice = TilingChoice(tm=128, tn=128, tk=128, innermost="k",
                              pinned=frozenset({"input"}))
        streaming = TilingChoice(tm=128, tn=128, tk=128, innermost="k")
        assert dram_traffic_bytes(shape, choice) < \
            dram_traffic_bytes(shape, streaming)

    def test_lbm_input_is_free(self):
        shape = GEMMShape(m=256, n=256, k=256)
        lbm = TilingChoice(tm=256, tn=256, tk=256, innermost="m",
                           lbm_input=True)
        plain = TilingChoice(tm=256, tn=256, tk=256, innermost="m")
        saved = dram_traffic_bytes(shape, plain) - \
            dram_traffic_bytes(shape, lbm)
        assert saved == shape.input_elems

    def test_pinned_cache_bytes(self):
        shape = GEMMShape(m=64, n=64, k=64)
        choice = TilingChoice(tm=64, tn=64, tk=64, innermost="m",
                              pinned=frozenset({"weight", "output"}))
        assert pinned_cache_bytes(shape, choice) == \
            shape.weight_elems + shape.output_elems

    def test_scratchpad_double_buffering(self):
        choice = TilingChoice(tm=32, tn=32, tk=32, innermost="m")
        single = scratchpad_bytes(choice, double_buffer=False)
        double = scratchpad_bytes(choice, double_buffer=True)
        assert double == single + 2 * 32 * 32


class TestHeuristics:
    def test_tile_space_respects_scratchpad(self):
        rules = HeuristicRules(npu=NPUConfig())
        shape = GEMMShape(m=4096, n=4096, k=4096)
        for tm, tn, tk in rules.tile_space(shape):
            choice = TilingChoice(tm=tm, tn=tn, tk=tk, innermost="m")
            assert scratchpad_bytes(choice) <= 256 * KiB

    def test_tile_space_prunes(self):
        rules = HeuristicRules(npu=NPUConfig())
        shape = GEMMShape(m=4096, n=4096, k=4096)
        total = len(tile_candidates(4096, 32)) ** 3
        assert 0 < len(rules.tile_space(shape)) < total

    def test_dominated_pins_dropped(self):
        rules = HeuristicRules(npu=NPUConfig())
        never_refetched = {"m": "weight", "n": "input", "k": "output"}
        subspaces = rules.subspaces()
        assert len(subspaces) == 12
        for s in subspaces:
            assert never_refetched[s.innermost] not in s.pinned


class TestSolver:
    def test_more_cache_never_hurts(self):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape.of(matmul("m", 512, 2048, 1024))
        prev = float("inf")
        for level in DEFAULT_USAGE_LEVELS:
            solved = solver.solve(shape, level)
            assert solved.dram_bytes <= prev + 1e-9
            prev = solved.dram_bytes

    def test_solution_respects_budget(self):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape.of(matmul("m", 512, 2048, 1024))
        for level in DEFAULT_USAGE_LEVELS:
            assert solver.solve(shape, level).cache_bytes <= level

    def test_zero_budget_streams_everything(self):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape.of(matmul("m", 256, 256, 256))
        solved = solver.solve(shape, 0)
        assert solved.cache_bytes == 0
        assert not solved.choice.pinned

    def test_traffic_never_below_compulsory(self):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape.of(matmul("m", 512, 512, 512))
        solved = solver.solve(shape, 4 * MiB)
        compulsory = (
            shape.input_elems + shape.weight_elems + shape.output_elems
        )
        assert solved.dram_bytes >= compulsory

    @given(
        m=st.integers(32, 2048),
        n=st.integers(32, 2048),
        k=st.integers(32, 2048),
    )
    @settings(max_examples=25, deadline=None)
    def test_solver_feasible_on_arbitrary_gemms(self, m, n, k):
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape(m=m, n=n, k=k)
        solved = solver.solve(shape, 512 * KiB)
        assert solved.dram_bytes > 0
        assert solved.scratchpad_bytes <= 256 * KiB


def _oracle_solve(npu, dtype, shape, limit, lbm_input, lbm_output):
    """Reference solver: every tile of every subspace admitted at
    ``limit``, costed one by one with the per-choice cost model, keeping
    the first strictly better (dram, cache, scratchpad) triple."""
    rules = HeuristicRules(npu=npu, dtype_bytes=dtype)
    sizes = {"weight": shape.weight_elems * dtype,
             "input": shape.input_elems * dtype,
             "output": shape.output_elems * dtype}
    best = None
    for subspace in rules.subspaces():
        if sum(sizes[t] for t in subspace.pinned) > limit:
            continue
        for tm, tn, tk in rules.tile_space(shape):
            choice = TilingChoice(
                tm=tm, tn=tn, tk=tk, innermost=subspace.innermost,
                pinned=subspace.pinned, lbm_input=lbm_input,
                lbm_output=lbm_output,
            )
            cache = pinned_cache_bytes(shape, choice, dtype)
            if cache > limit:
                continue
            candidate = SolvedMapping(
                choice=choice,
                dram_bytes=dram_traffic_bytes(shape, choice, dtype),
                cache_bytes=cache,
                scratchpad_bytes=scratchpad_bytes(choice, dtype),
            )
            if best is None or SubspaceSolver._better(candidate, best):
                best = candidate
    if best is None:
        raise MappingError(f"no feasible mapping for GEMM {shape} at "
                           f"{limit} B cache")
    return best


_ORACLE_NPUS = (NPUConfig(), NPUConfig(pe_rows=16, pe_cols=16,
                                       scratchpad_bytes=64 * KiB))


@st.composite
def _gemm_shapes(draw):
    """Plain, grouped (attention-head) and conv/attention footprints."""
    m = draw(st.integers(1, 4096))
    n = draw(st.integers(1, 4096))
    k = draw(st.integers(1, 4096))
    groups = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("dense", "conv", "attention")))
    if kind == "dense":
        return GEMMShape(m=m, n=n, k=k, groups=groups)
    if kind == "conv":
        # im2col: the true activation is smaller than the GEMM operand.
        kernel = draw(st.sampled_from((1, 3, 5, 7)))
        return GEMMShape(m=m, n=n, k=k * kernel * kernel,
                         input_elems=max(m * k, 1))
    # Weightless matmul: the stationary operand plays the weight role.
    return GEMMShape(m=m, n=n, k=k, groups=groups,
                     weight_elems=groups * k * n,
                     input_elems=groups * m * k)


class TestSolverOracle:
    @given(
        shape=_gemm_shapes(),
        limit=st.one_of(st.just(0), st.integers(0, 64 * MiB),
                        st.sampled_from(DEFAULT_USAGE_LEVELS)),
        lbm_input=st.booleans(),
        lbm_output=st.booleans(),
        npu=st.sampled_from(_ORACLE_NPUS),
        dtype=st.sampled_from((1, 2)),
    )
    @settings(max_examples=300, deadline=None)
    def test_solve_matches_per_tile_enumeration(
        self, shape, limit, lbm_input, lbm_output, npu, dtype
    ):
        solver = SubspaceSolver(npu, dtype)
        try:
            expected = _oracle_solve(npu, dtype, shape, limit, lbm_input,
                                     lbm_output)
        except MappingError as exc:
            with pytest.raises(MappingError) as raised:
                solver.solve(shape, limit, lbm_input, lbm_output)
            assert str(raised.value) == str(exc)
            return
        solved = solver.solve(shape, limit, lbm_input, lbm_output)
        assert solved == expected
        assert repr(solved.dram_bytes) == repr(expected.dram_bytes)

    def test_every_usage_level_reuses_one_table(self, monkeypatch):
        monkeypatch.setattr(SubspaceSolver, "_SOLVE_CACHE", {})
        for counter in SOLVER_COUNTERS:
            monkeypatch.setitem(SOLVER_COUNTERS, counter, 0)
        solver = SubspaceSolver(NPUConfig())
        shape = GEMMShape.of(matmul("m", 512, 2048, 1024))
        for level in DEFAULT_USAGE_LEVELS:
            solver.solve(shape, level)
        tiles = len(solver.rules.tile_space(shape))
        assert SOLVER_COUNTERS == {
            "shapes_tabulated": 1,
            "tiles_evaluated": 3 * tiles,
            "solve_memo_hits": len(DEFAULT_USAGE_LEVELS) - 1,
            "solve_memo_misses": 1,
        }


class TestMapperCounters:
    def test_cold_fig7_mapping_work_is_bounded(self, monkeypatch):
        """The eight Fig. 7 models, mapped cold on the Table II SoC.

        Re-enumerating every tile of every subspace at every usage level
        evaluated 400,891 tiles; solving each subspace once per shape
        must stay well under a fifth of that.
        """
        monkeypatch.setenv("REPRO_MAPPING_CACHE_DIR", "")
        monkeypatch.setattr(prepared, "_MODEL_CACHE", {})
        monkeypatch.setattr(LayerMapper, "_SHARED_CACHE", {})
        monkeypatch.setattr(SubspaceSolver, "_SOLVE_CACHE", {})
        for counter in SOLVER_COUNTERS:
            monkeypatch.setitem(SOLVER_COUNTERS, counter, 0)
        for key in dict.fromkeys(SPEEDUP_WORKLOAD):
            prepared.prepare_model(key, SoCConfig())
        counters = mapper_counters()
        assert 0 < counters["tiles_evaluated"] <= 400_891 // 5
        assert counters["shapes_tabulated"] == \
            counters["solve_memo_misses"]
        assert counters["solve_memo_hits"] > counters["solve_memo_misses"]

    def test_clear_prepared_caches_resets_counters(self):
        prepared.prepare_model("MB.", SoCConfig())
        clear_prepared_caches()
        assert set(mapper_counters().values()) == {0}


class TestLayerMapper:
    @pytest.fixture(scope="class")
    def mapper(self):
        return LayerMapper(SoCConfig())

    @pytest.fixture(scope="class")
    def resnet_file(self, mapper):
        return mapper.map_model(build_model("RS."))

    def test_one_mct_per_layer(self, resnet_file):
        assert len(resnet_file.mcts) == len(build_model("RS.").layers)

    def test_every_mct_validates(self, resnet_file):
        for mct in resnet_file.mcts:
            mct.validate(32 * KiB)

    def test_every_layer_has_zero_fallback(self, resnet_file):
        for mct in resnet_file.mcts:
            assert mct.lwm[0].cache_bytes == 0

    def test_candidates_monotone_in_dram(self, resnet_file):
        """Larger candidates never cost more DRAM traffic."""
        for mct in resnet_file.mcts:
            drams = [c.dram_bytes for c in mct.lwm]
            assert drams == sorted(drams, reverse=True)

    def test_est_latency_positive(self, resnet_file):
        for mct in resnet_file.mcts:
            assert mct.est_latency_s > 0

    def test_blocks_cover_model(self, resnet_file):
        covered = []
        for start, end in resnet_file.blocks:
            covered.extend(range(start, end))
        assert covered == list(range(len(resnet_file.mcts)))

    def test_mapping_is_memoized(self, mapper):
        first = mapper.map_model(build_model("MB."))
        second = mapper.map_model(build_model("MB."))
        assert first is second

    def test_lbm_reduces_model_traffic(self, mapper):
        """LBM must beat the best LWM on intermediate-heavy MobileNet."""
        mf = mapper.map_model(build_model("MB."))
        lwm_total = mf.total_dram_bytes(4 * MiB)
        lbm_total = sum(
            mct.lbm.dram_bytes if mct.lbm else
            min(c.dram_bytes for c in mct.lwm)
            for mct in mf.mcts
        )
        assert lbm_total < lwm_total

    def test_mapping_stats(self, mapper):
        stats = mapper.mapping_stats(build_model("MB."))
        assert stats["layers"] == len(build_model("MB.").layers)
        assert 0.0 <= stats["traffic_reduction"] <= 1.0
