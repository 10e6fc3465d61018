"""Tests for the vectorized batch engine, the repaired batch executor and
the degenerate-input windowing paths.

The central contract (the PR's acceptance criterion): the vectorized
lockstep engine produces byte-identical CIGARs and edit distances to the
scalar path on the simulated-read corpus, and a 2-worker
``BatchExecutor.run_pairs`` call completes without error.
"""

from __future__ import annotations

import itertools
import warnings

import pytest

from repro.batch import (
    BatchAlignmentEngine,
    LaneJob,
    SoAWave,
    align_pairs_vectorized,
    lockstep_stats,
    run_dc_wave_state,
)
from repro.core.aligner import GenASMAligner, align_pair
from repro.core.cigar import CigarOp
from repro.core.config import GenASMConfig
from repro.core.genasm_dc import genasm_dc
from repro.core.metrics import AccessCounter
from repro.core.windowing import align_window, align_windowed
from repro.execution import available_backends, get_backend
from repro.gpu.device import A6000
from repro.gpu.kernel import GenASMKernelSpec
from repro.gpu.simulator import GpuSimulator
from repro.harness.dataset import build_paper_dataset
from repro.harness.experiments import run_batched_throughput_experiment
from repro.parallel.executor import BatchExecutor, BatchResult, Stopwatch
from tests.conftest import mutate, random_dna


def _random_pairs(rng, specs):
    """(pattern, text) pairs: mutated copies plus trailing slack."""
    pairs = []
    for length, edits in specs:
        pattern = random_dna(rng, length)
        text = mutate(rng, pattern, edits) + random_dna(rng, 8)
        pairs.append((pattern, text))
    return pairs


def _assert_identical(scalar_alignments, batch_alignments):
    assert len(scalar_alignments) == len(batch_alignments)
    for a, b in zip(scalar_alignments, batch_alignments):
        assert str(a.cigar) == str(b.cigar)
        assert a.edit_distance == b.edit_distance
        assert a.text_end == b.text_end
        for key in (
            "windows",
            "rows_computed",
            "peak_window_bytes",
            "total_stored_bytes",
            "dp_accesses",
            "dp_bytes",
        ):
            assert a.metadata[key] == b.metadata[key], key


class TestVectorizedEquivalence:
    """Vectorized engine ≡ scalar aligner, bit for bit."""

    def test_identical_on_simulated_read_corpus(self):
        workload = build_paper_dataset(
            read_count=4, read_length=600, seed=11, max_pairs=8
        )
        config = GenASMConfig()
        scalar = GenASMAligner(config)
        batch = BatchAlignmentEngine(config)
        _assert_identical(
            [scalar.align(p, t) for p, t in workload.pairs],
            batch.align_pairs(workload.pairs),
        )

    @pytest.mark.parametrize(
        "entry_compression,early_termination,traceback_band",
        list(itertools.product([False, True], repeat=3)),
    )
    def test_identical_across_improvement_toggles(
        self, rng, entry_compression, early_termination, traceback_band
    ):
        config = GenASMConfig(
            entry_compression=entry_compression,
            early_termination=early_termination,
            traceback_band=traceback_band,
        )
        pairs = _random_pairs(rng, [(5, 1), (63, 6), (64, 5), (65, 4), (150, 15)])
        pairs += [("", "ACGT"), ("ACGT", ""), ("ACGTACGT", "TTTT")]
        scalar = GenASMAligner(config)
        _assert_identical(
            [scalar.align(p, t) for p, t in pairs],
            BatchAlignmentEngine(config).align_pairs(pairs),
        )

    def test_shared_counter_accumulates_like_align_batch(self, rng):
        pairs = _random_pairs(rng, [(100, 8), (70, 5)])
        config = GenASMConfig()
        scalar_counter = AccessCounter()
        GenASMAligner(config).align_batch(pairs, counter=scalar_counter)
        batch_counter = AccessCounter()
        align_pairs_vectorized(pairs, config, counter=batch_counter)
        assert batch_counter.as_dict() == scalar_counter.as_dict()

    def test_wide_window_config_vectorizes_multi_word(self, rng):
        # Pre-PR the short-read config silently fell back to the scalar
        # aligner; now it takes the multi-word lockstep path (3 uint64
        # words per 150-character lane) and must still be byte-identical.
        config = GenASMConfig.short_read(read_length=150)
        engine = BatchAlignmentEngine(config)
        assert engine.vectorizable
        assert engine.words_per_lane == 3
        pairs = _random_pairs(rng, [(150, 4), (150, 2), (40, 1)])
        _assert_identical(
            [GenASMAligner(config).align(p, t) for p, t in pairs],
            engine.align_pairs(pairs),
        )
        for alignment in engine.align_pairs(pairs):
            assert alignment.metadata["vectorized"] is True
            assert alignment.metadata["words_per_lane"] == 3

    def test_word_bits_config_falls_back_with_one_warning(self, rng):
        # The only remaining scalar fallback is word_bits != 64; it must be
        # observable (metadata + a RuntimeWarning deduped per process per
        # reason), and still produce the scalar path's exact results.
        from repro.batch import engine as engine_module

        engine_module._FALLBACK_WARNED.clear()  # re-arm: other tests may have fired it
        config = GenASMConfig(word_bits=32)
        engine = BatchAlignmentEngine(config)
        assert not engine.vectorizable
        pairs = _random_pairs(rng, [(90, 6), (40, 2)])
        with pytest.warns(RuntimeWarning, match="falling back"):
            batch = engine.align_pairs(pairs)
        _assert_identical(
            [GenASMAligner(config).align(p, t) for p, t in pairs], batch
        )
        for alignment in batch:
            assert alignment.metadata["vectorized"] is False
            assert alignment.metadata["words_per_lane"] == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Second batch through the same engine: no further warning.
            engine.align_pairs(pairs)
            # A *fresh* engine with the same fallback reason must not
            # re-warn either: services build engines per worker/request,
            # and one config problem should warn once per process.
            BatchAlignmentEngine(GenASMConfig(word_bits=32)).align_pairs(pairs)

    def test_vectorized_metadata_recorded_on_vectorized_path(self, rng):
        pairs = _random_pairs(rng, [(70, 5)])
        for alignment in BatchAlignmentEngine(GenASMConfig()).align_pairs(pairs):
            assert alignment.metadata["vectorized"] is True
            assert alignment.metadata["words_per_lane"] == 1

    def test_max_lanes_chunking_preserves_results(self, rng):
        pairs = _random_pairs(rng, [(90, 8), (120, 10), (40, 3), (64, 6)])
        config = GenASMConfig()
        whole = BatchAlignmentEngine(config).align_pairs(pairs)
        chunked = BatchAlignmentEngine(config, max_lanes=2).align_pairs(pairs)
        _assert_identical(whole, chunked)


class TestDCWave:
    """The lockstep DC kernel against the scalar genasm_dc, state for state."""

    @pytest.mark.parametrize("entry_compression", [False, True])
    @pytest.mark.parametrize("traceback_band", [False, True])
    def test_stored_state_matches_scalar(self, rng, entry_compression, traceback_band):
        jobs = []
        scalar_tables = []
        for length, k in [(12, 3), (40, 7), (64, 9), (1, 1), (65, 6), (100, 11), (150, 9)]:
            pattern = random_dna(rng, length)
            text = mutate(rng, pattern, max(1, length // 8)) + random_dna(rng, 4)
            store_from = 2 if traceback_band and length > 4 else 0
            jobs.append(
                LaneJob(pattern=pattern, text=text, max_errors=k, store_from=store_from)
            )
            scalar_tables.append(
                genasm_dc(
                    pattern,
                    text,
                    k,
                    entry_compression=entry_compression,
                    early_termination=True,
                    traceback_band=traceback_band,
                    store_from_column=store_from,
                )
            )
        wave = SoAWave(jobs, traceback_band=traceback_band)
        state = run_dc_wave_state(
            wave, entry_compression=entry_compression, early_termination=True
        )
        for lane, want in enumerate(scalar_tables):
            got = state.table(lane)
            assert got.min_errors == want.min_errors
            assert got.rows_computed == want.rows_computed
            assert got.final_column == want.final_column
            assert got.stored_r == want.stored_r
            assert got.stored_quad == want.stored_quad
            assert got.stored_bytes() == want.stored_bytes()
            assert got.counter.as_dict() == want.counter.as_dict()

    def test_lane_job_validation(self):
        with pytest.raises(ValueError):
            LaneJob(pattern="", text="ACGT", max_errors=1)
        with pytest.raises(ValueError):
            LaneJob(pattern="ACGT", text="", max_errors=1)
        with pytest.raises(ValueError):
            SoAWave([], traceback_band=True)
        # Patterns wider than one word are valid multi-word lanes now.
        wave = SoAWave(
            [LaneJob(pattern="A" * 65, text="ACGT", max_errors=1)],
            traceback_band=True,
        )
        assert wave.words == 2


class TestDegenerateWindowing:
    """Degenerate inputs through align_window / align_windowed."""

    def test_empty_text_window_counts_window(self):
        counter = AccessCounter()
        result = align_window("ACGT", "", GenASMConfig(), counter=counter)
        assert [op for op in result.ops] == [CigarOp.INSERTION] * 4
        assert result.pattern_consumed == 4
        assert counter.windows == 1

    def test_empty_pattern_window_counts_window(self):
        counter = AccessCounter()
        result = align_window("", "ACGT", GenASMConfig(), counter=counter)
        assert result.ops == []
        assert counter.windows == 1

    def test_window_size_larger_than_pattern(self):
        config = GenASMConfig(window_size=64, window_overlap=16)
        result = align_windowed("ACGTAC", "ACGTAC", config)
        assert result.edit_distance == 0
        assert result.windows == 1
        assert result.counter.windows == 1

    def test_zero_length_read_through_align_windowed(self):
        result = align_windowed("", "ACGTACGT", GenASMConfig())
        assert result.edit_distance == 0
        assert result.windows == 0
        assert len(result.cigar.runs) == 0
        assert result.text_consumed == 0

    def test_empty_pattern_dc_table_respects_storage_config(self):
        compressed = genasm_dc("", "ACG", 2, entry_compression=True)
        assert compressed.stored_r == [[0, 0, 0, 0]]
        assert compressed.stored_quad == []
        quad = genasm_dc("", "ACG", 2, entry_compression=False)
        assert quad.stored_r == []
        assert quad.stored_quad == [[(0, 0, 0, 0)] * 3]
        assert quad.min_errors == 0


class TestBatchExecutor:
    def test_run_pairs_with_two_workers(self):
        """Regression: the lambda-based implementation was unpicklable under spawn."""
        pairs = [("ACGT", "ACGTA"), ("ACCT", "ACGTT"), ("TTTT", "TTAT")]
        executor = BatchExecutor(workers=2, chunk_size=1)
        result = executor.run_pairs(align_pair, pairs)
        assert result.items == 3
        assert result.workers == 2
        serial = BatchExecutor(workers=1).run_pairs(align_pair, pairs)
        for got, want in zip(result.results, serial.results):
            assert str(got.cigar) == str(want.cigar)
            assert got.edit_distance == want.edit_distance

    def test_run_alignments_backends_identical(self, rng):
        pairs = _random_pairs(rng, [(60, 4), (90, 7)])
        serial = BatchExecutor(backend="serial").run_alignments(pairs)
        vectorized = BatchExecutor(backend="vectorized").run_alignments(pairs)
        process = BatchExecutor(workers=2, backend="process").run_alignments(pairs)
        assert serial.backend == "serial"
        assert vectorized.backend == "vectorized"
        assert process.backend == "process" and process.workers == 2
        for batch in (vectorized, process):
            for got, want in zip(batch.results, serial.results):
                assert str(got.cigar) == str(want.cigar)
                assert got.edit_distance == want.edit_distance

    def test_process_backend_with_one_worker_reports_serial(self):
        result = BatchExecutor(backend="process").run_alignments([("ACG", "ACG")])
        assert result.backend == "serial"
        assert result.workers == 1

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            BatchExecutor(backend="gpu")
        with pytest.raises(ValueError):
            BatchExecutor().run_alignments([("A", "A")], backend="gpu")

    def test_batch_result_speedup_over(self):
        fast = BatchResult(results=[], elapsed_seconds=0.5, items=100)
        slow = BatchResult(results=[], elapsed_seconds=2.0, items=100)
        assert fast.speedup_over(slow) == pytest.approx(4.0)
        assert slow.speedup_over(fast) == pytest.approx(0.25)
        instant = BatchResult(results=[], elapsed_seconds=0.0, items=1)
        assert instant.items_per_second == float("inf")

    def test_stopwatch_reuse_accumulates(self):
        watch = Stopwatch()
        with watch:
            sum(range(1000))
        first = watch.elapsed
        with watch:
            sum(range(1000))
        assert watch.elapsed > first
        watch.reset()
        assert watch.elapsed == 0.0
        with pytest.raises(RuntimeError):
            watch.stop()


class TestCaseNormalisation:
    """Raw-pair entry points align case-insensitively, like FASTA/FASTQ ingest,
    and hand back the caller's sequences unchanged."""

    @staticmethod
    def _mixed_case(rng, sequence):
        return "".join(c.lower() if rng.random() < 0.5 else c for c in sequence)

    @pytest.mark.parametrize("backend", available_backends())
    def test_mixed_case_pair_matches_upper_case_twin(self, rng, backend):
        upper = _random_pairs(rng, [(18, 0), (150, 12)])
        mixed = [(self._mixed_case(rng, p), self._mixed_case(rng, t)) for p, t in upper]
        want = get_backend("serial").align_pairs(upper, GenASMConfig())
        workers = 2 if get_backend(backend).capabilities.multiprocess else 1
        got = get_backend(backend).align_pairs(mixed, GenASMConfig(), workers=workers)
        for have, ref, (pattern, text) in zip(got, want, mixed):
            assert str(have.cigar) == str(ref.cigar), backend
            assert have.edit_distance == ref.edit_distance, backend
            assert (have.pattern, have.text) == (pattern, text), backend

    def test_lower_case_copy_is_an_exact_match(self):
        pattern = "ACGTTGCAACGTAGCTAG"
        assert GenASMAligner().align(pattern.lower(), pattern).edit_distance == 0
        batch = BatchAlignmentEngine().align_pairs([(pattern.lower(), pattern)])[0]
        assert str(batch.cigar) == "18="
        assert GenASMAligner().edit_distance(pattern, pattern.lower()) == 0


class TestPairTypeCheck:
    """A non-str sequence fails at ``align_pairs``, naming its pair."""

    @pytest.mark.parametrize("bad", [None, 42, b"ACGT"])
    @pytest.mark.parametrize("side", ["pattern", "text"])
    def test_rejected_before_any_wave(self, monkeypatch, bad, side):
        import repro.batch.engine as engine_module

        def no_wave(*args, **kwargs):
            raise AssertionError("a wave ran before the type check")

        monkeypatch.setattr(engine_module, "run_dc_wave_state", no_wave)
        bad_pair = (bad, "ACGT") if side == "pattern" else ("ACGT", bad)
        with pytest.raises(TypeError, match=rf"pair 1: .*{type(bad).__name__}"):
            BatchAlignmentEngine().align_pairs([("ACGT", "ACGT"), bad_pair])


class TestWarpModel:
    def test_lockstep_stats(self):
        stats = lockstep_stats([4.0, 1.0, 4.0, 4.0], 2)
        assert stats["groups"] == 2
        assert stats["useful_work"] == pytest.approx(13.0)
        assert stats["lockstep_work"] == pytest.approx(16.0)
        assert stats["efficiency"] == pytest.approx(13.0 / 16.0)
        assert lockstep_stats([], 32)["efficiency"] == 1.0
        with pytest.raises(ValueError):
            lockstep_stats([1.0], 0)

    def test_warp_divergence_and_lockstep_simulation(self, rng):
        pairs = _random_pairs(rng, [(200, 16), (80, 4), (300, 24), (120, 8)])
        kernel = GenASMKernelSpec(GenASMConfig())
        profiles = kernel.profile_batch(pairs)
        simulator = GpuSimulator(A6000)
        stats = simulator.warp_divergence(profiles, warp_size=2)
        assert 0.0 < stats["efficiency"] <= 1.0
        uniform = simulator.simulate(pairs, kernel, profiles=profiles)
        diverged = simulator.simulate(
            pairs, kernel, profiles=profiles, warp_lockstep=True
        )
        assert uniform.lane_efficiency == 1.0
        assert 0.0 < diverged.lane_efficiency <= 1.0
        assert diverged.compute_seconds >= uniform.compute_seconds
        assert "lane_efficiency" in diverged.summary()


class TestHarnessBatchedExperiment:
    def test_batched_throughput_rows(self):
        workload = build_paper_dataset(
            read_count=3, read_length=400, seed=5, max_pairs=4
        )
        rows = run_batched_throughput_experiment(
            workload, workers=2, include_process=True
        )
        by_id = {row["id"]: row for row in rows}
        assert set(by_id) == {"E1v_vectorized_vs_serial", "E1v_process_vs_serial"}
        for row in rows:
            assert row["identical_results"] is True
            assert row["measured"] > 0
            assert row["pairs"] == workload.pair_count


class TestMapperBatch:
    def test_align_candidates_matches_serial(self):
        workload = build_paper_dataset(
            read_count=3, read_length=400, seed=9, max_pairs=4
        )
        from repro.mapping.mapper import Mapper

        mapper = Mapper(workload.genome)
        read_sequences = {r.name: r.sequence for r in workload.reads}
        candidates = [
            c for c in workload.candidates if c.read_name in read_sequences
        ][:4]
        assert candidates, "workload produced no candidates"
        vectorized = mapper.align_candidates(candidates, read_sequences)
        serial = mapper.align_candidates(candidates, read_sequences, backend="serial")
        assert len(vectorized) == len(candidates)
        for got, want in zip(vectorized, serial):
            assert str(got.cigar) == str(want.cigar)
            assert got.edit_distance == want.edit_distance
