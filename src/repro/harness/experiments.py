"""Experiment registry reproducing every result reported in the paper.

Each ``run_*_experiment`` function returns a list of row dictionaries with
at least the keys ``metric``, ``paper`` and ``measured`` so the report
generator and the benchmark suite can consume them uniformly.  See
DESIGN.md §4 for the mapping from experiment id to paper claim.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.edlib_like import EdlibLikeAligner
from repro.baselines.ksw2 import Ksw2Aligner
from repro.baselines.needleman_wunsch import needleman_wunsch
from repro.core.aligner import GenASMAligner
from repro.core.config import GenASMConfig
from repro.core.metrics import AccessCounter, MemoryFootprint
from repro.gpu.device import A6000, XEON_GOLD_5118
from repro.gpu.kernel import GenASMKernelSpec
from repro.gpu.simulator import CpuModel, GpuSimulator
from repro.harness.dataset import AlignmentWorkload, build_paper_dataset
from repro.parallel.executor import BatchExecutor

__all__ = [
    "PAPER_CLAIMS",
    "default_workload",
    "run_cpu_speed_experiment",
    "run_batched_throughput_experiment",
    "run_streaming_throughput_experiment",
    "run_short_read_throughput_experiment",
    "run_service_mixed_workload_experiment",
    "run_gpu_speed_experiment",
    "run_memory_footprint_experiment",
    "run_memory_access_experiment",
    "run_accuracy_experiment",
    "run_ablation_experiment",
]

#: The paper's reported numbers, keyed by experiment row id.
PAPER_CLAIMS: Dict[str, float] = {
    "E1a_cpu_vs_ksw2": 15.2,
    "E1b_cpu_vs_edlib": 1.7,
    "E1c_cpu_vs_baseline_genasm": 1.9,
    "E2a_gpu_vs_cpu": 4.1,
    "E2b_gpu_vs_ksw2": 62.0,
    "E2c_gpu_vs_edlib": 7.2,
    "E2d_gpu_vs_baseline_gpu": 5.9,
    "E3_footprint_reduction": 24.0,
    "E4_access_reduction": 12.0,
    "E5_accuracy": 1.0,
}


def default_workload(
    *, read_count: int = 12, read_length: int = 1_200, seed: int = 0, max_pairs: int = 16
) -> AlignmentWorkload:
    """A small but representative workload for interactive runs and benches."""
    return build_paper_dataset(
        read_count=read_count,
        read_length=read_length,
        seed=seed,
        max_pairs=max_pairs,
    )


#: Interleaved E1 timing rounds; each aligner keeps its fastest, so one
#: scheduling blip on a loaded host cannot flip a speedup ratio.
E1_TIMING_ROUNDS = 3


def _time_batch(align: Callable[[str, str], object], pairs: Sequence[Tuple[str, str]]) -> float:
    """Wall-clock seconds to align all pairs with ``align``."""
    start = time.perf_counter()
    for pattern, text in pairs:
        align(pattern, text)
    return time.perf_counter() - start


# --------------------------------------------------------------------------- #
# E1 — CPU aligner comparison (measured relative throughput)
# --------------------------------------------------------------------------- #
def run_cpu_speed_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
) -> List[Dict[str, object]]:
    """E1: improved-GenASM CPU vs KSW2-like, Edlib-like and baseline GenASM.

    The measured values are relative per-pair throughput of the Python
    implementations on the same candidate pairs; the paper's values are
    relative throughput of the C/C++/CUDA implementations.  The quantity
    being compared — "how many times faster is improved GenASM" — is the
    same; absolute runtimes are not comparable and not reported as such.
    Each aligner keeps its best of :data:`E1_TIMING_ROUNDS` interleaved rounds.
    """
    workload = workload or default_workload()
    config = config or GenASMConfig()
    pairs = workload.pairs

    improved = GenASMAligner(config, name="genasm-improved")
    baseline = GenASMAligner(GenASMConfig.baseline(), name="genasm-baseline")
    edlib = EdlibLikeAligner("prefix")
    ksw2 = Ksw2Aligner(band_width=max(64, int(0.2 * max(len(p) for p, _ in pairs))))

    aligners = {
        "genasm-improved": improved.align,
        "genasm-baseline": baseline.align,
        "edlib-like": edlib.align,
        "ksw2-like": ksw2.align,
    }
    timings = {name: float("inf") for name in aligners}
    for _ in range(E1_TIMING_ROUNDS):
        for name, align in aligners.items():
            timings[name] = min(timings[name], _time_batch(align, pairs))
    improved_time = timings["genasm-improved"]

    rows = [
        {
            "id": "E1a_cpu_vs_ksw2",
            "metric": "improved GenASM (CPU) speedup over KSW2",
            "paper": PAPER_CLAIMS["E1a_cpu_vs_ksw2"],
            "measured": timings["ksw2-like"] / improved_time,
        },
        {
            "id": "E1b_cpu_vs_edlib",
            "metric": "improved GenASM (CPU) speedup over Edlib",
            "paper": PAPER_CLAIMS["E1b_cpu_vs_edlib"],
            "measured": timings["edlib-like"] / improved_time,
        },
        {
            "id": "E1c_cpu_vs_baseline_genasm",
            "metric": "improved GenASM (CPU) speedup over baseline GenASM (CPU)",
            "paper": PAPER_CLAIMS["E1c_cpu_vs_baseline_genasm"],
            "measured": timings["genasm-baseline"] / improved_time,
        },
    ]
    for row in rows:
        row["pairs"] = len(pairs)
        row["timings_seconds"] = dict(timings)
    return rows


# --------------------------------------------------------------------------- #
# E1v — batched CPU throughput: scalar vs vectorized backends
# --------------------------------------------------------------------------- #
def run_batched_throughput_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
    scheduling_lanes: int = 32,
) -> List[Dict[str, object]]:
    """E1v: batched variant of the CPU-throughput experiment.

    Runs the same candidate pairs through the serial per-pair loop and the
    vectorized lockstep engine from :mod:`repro.batch` (both via
    :class:`~repro.parallel.executor.BatchExecutor`) and reports the
    vectorized speedup over the serial path.  The paper has no
    corresponding number (its batch layer is the 48-thread C++ harness), so
    ``paper`` is NaN; the row instead carries an ``identical_results`` flag
    asserting both produced byte-identical CIGARs and edit distances, which
    is the correctness contract of the vectorized engine.

    The row also reports the wave-scheduling diagnostics: the lockstep
    efficiency of ``scheduling_lanes``-wide waves over this workload under
    the engine's work-sorted schedule
    (:meth:`repro.batch.BatchAlignmentEngine.scheduling_stats`) versus
    chunking in input order (:func:`repro.batch.lockstep_stats` over the
    unsorted per-lane work).
    """
    workload = workload or default_workload()
    config = config or GenASMConfig()
    pairs = workload.pairs

    serial = BatchExecutor(backend="serial").run_alignments(pairs, config, name="serial")
    vectorized = BatchExecutor(backend="vectorized").run_alignments(
        pairs, config, name="vectorized"
    )
    identical = all(
        str(a.cigar) == str(b.cigar) and a.edit_distance == b.edit_distance
        for a, b in zip(serial.results, vectorized.results)
    )

    from repro.batch import BatchAlignmentEngine, lockstep_stats

    lanes = max(1, min(scheduling_lanes, len(pairs))) if pairs else 1
    engine = BatchAlignmentEngine(config, max_lanes=lanes)
    sorted_stats = engine.scheduling_stats(pairs)
    input_order_stats = lockstep_stats(
        [engine.expected_work(len(pattern)) for pattern, _ in pairs], lanes
    )

    return [
        {
            "id": "E1v_vectorized_vs_serial",
            "metric": "vectorized batch engine speedup over serial CPU loop",
            "paper": float("nan"),
            "measured": vectorized.speedup_over(serial),
            "identical_results": identical,
            "serial_pairs_per_second": serial.items_per_second,
            "vectorized_pairs_per_second": vectorized.items_per_second,
            "scheduling_lanes": lanes,
            "lockstep_efficiency_sorted": sorted_stats["efficiency"],
            "lockstep_efficiency_fifo": input_order_stats["efficiency"],
            "pairs": len(pairs),
        }
    ]


# --------------------------------------------------------------------------- #
# E1s — streaming pipeline throughput: overlapped ingest/map/align vs the
#       offline phase-at-a-time harness
# --------------------------------------------------------------------------- #
def run_streaming_throughput_experiment(
    workload: Optional["AlignmentWorkload"] = None,
    *,
    config: Optional[GenASMConfig] = None,
    read_count: int = 32,
    read_length: int = 500,
    seed: int = 0,
    wave_size: int = 128,
    max_pending: int = 512,
    map_workers: int = 1,
    align_workers: int = 1,
    shared_workers: Optional[int] = None,
    shared_wave_size: Optional[int] = None,
) -> List[Dict[str, object]]:
    """E1s: end-to-end streaming pipeline vs the offline map-then-align path.

    Both paths run the complete §II pipeline over the same simulated reads
    — mapping included — so the comparison is end-to-end read throughput,
    not just alignment:

    * **offline serial**: materialise every candidate pair with
      :meth:`Mapper.map_reads`, then align the full list with the serial
      scalar loop (the pre-batching harness);
    * **offline vectorized**: same materialised list through the lockstep
      engine (the PR-1/PR-2 harness);
    * **streaming**: :class:`repro.pipeline.StreamingPipeline` over the
      read stream — mapping, wave accumulation and wave execution
      overlapped;
    * **shared streaming** (with ``shared_workers``): the same pipeline
      dispatching through a *pre-warmed*
      :class:`repro.parallel.shm.SharedMemoryExecutor` — mapping on worker
      processes over the shared minimizer index, waves handed off as
      shared-memory descriptors, and independent waves aligning
      concurrently.  The executor is built and warmed outside the timed
      region: the warm pool is the service-style operating mode this
      executor exists for (spawn + imports + segment hosting are paid at
      deploy time, not per batch).  The shared run streams in
      ``shared_wave_size`` waves (default: ``max_pending`` — the
      backpressure window *is* the natural wave, since a handoff is one
      segment copy of the wave's pairs plus a small layout while every
      extra wave pays a full DC dispatch).

    The paper has no corresponding number (its pipeline is the 48-thread
    C++ harness), so ``paper`` is NaN; rows carry an ``identical_results``
    flag asserting the streaming results are byte-identical, in order, to
    the offline alignments, plus the pipeline's per-stage timing and
    queue/wave diagnostics (:class:`repro.pipeline.PipelineStats`).

    Pass ``workload=None`` (default) to simulate ``read_count`` reads; an
    explicit workload reuses its genome and reads (its ``max_pairs`` cap is
    ignored — both paths align every candidate).
    """
    config = config or GenASMConfig()
    if workload is None:
        workload = build_paper_dataset(
            read_count=read_count, read_length=read_length, seed=seed, max_pairs=None
        )
    reads = workload.reads
    from repro.mapping.mapper import Mapper
    from repro.pipeline import StreamingPipeline

    mapper = Mapper(workload.genome, all_chains=True)
    sequences = {read.name: read.sequence for read in reads}

    # Offline: map everything, then align the materialised list.
    map_watch = time.perf_counter()
    candidates = mapper.map_reads(reads)
    pairs = [
        mapper.candidate_region_sequence(c, sequences[c.read_name])
        for c in candidates
    ]
    offline_map_seconds = time.perf_counter() - map_watch

    executor = BatchExecutor()
    serial = executor.run_alignments(pairs, config, name="offline-serial", backend="serial")
    vectorized = executor.run_alignments(
        pairs, config, name="offline-vectorized", backend="vectorized"
    )

    # Streaming: the same reads through the overlapped pipeline.
    pipeline = StreamingPipeline(
        mapper,
        config,
        wave_size=wave_size,
        max_pending=max_pending,
        map_workers=map_workers,
        align_workers=align_workers,
    )
    streamed = pipeline.run_all(reads)
    stats = pipeline.stats

    def identical(reference, mapped_results=None) -> bool:
        mapped_results = mapped_results if mapped_results is not None else streamed
        if len(mapped_results) != len(reference.results):
            return False
        return all(
            str(mapped.alignment.cigar) == str(want.cigar)
            and mapped.alignment.edit_distance == want.edit_distance
            and mapped.alignment.text_end == want.text_end
            for mapped, want in zip(mapped_results, reference.results)
        )

    reads_count = max(1, len(reads))
    offline_serial_seconds = offline_map_seconds + serial.elapsed_seconds
    offline_vectorized_seconds = offline_map_seconds + vectorized.elapsed_seconds
    streaming_rps = stats.reads_per_second
    serial_rps = reads_count / max(1e-9, offline_serial_seconds)
    vectorized_rps = reads_count / max(1e-9, offline_vectorized_seconds)

    common = {
        "paper": float("nan"),
        "reads": len(reads),
        "pairs": len(pairs),
        "streaming_reads_per_second": streaming_rps,
        "streaming_pairs_per_second": stats.pairs_per_second,
        "stage_seconds": dict(stats.stage_seconds),
        "wave_fill_efficiency": stats.wave_fill_efficiency,
        "max_pending": stats.max_pending,
        "mean_pending": stats.mean_pending,
        "waves": stats.waves,
        "pipeline_stats": stats.as_dict(),
    }
    rows = [
        {
            "id": "E1s_streaming_vs_offline_serial",
            "metric": "streaming pipeline speedup over offline map-then-serial-align",
            "measured": streaming_rps / serial_rps,
            "identical_results": identical(serial),
            "offline_serial_reads_per_second": serial_rps,
            **common,
        },
        {
            "id": "E1s_streaming_vs_offline_vectorized",
            "metric": "streaming pipeline speedup over offline map-then-vectorized-align",
            "measured": streaming_rps / vectorized_rps,
            "identical_results": identical(vectorized),
            "offline_vectorized_reads_per_second": vectorized_rps,
            **common,
        },
    ]

    if shared_workers is not None:
        from repro.parallel.shm import SharedMemoryExecutor

        with SharedMemoryExecutor(
            workers=shared_workers, config=config, mapper=mapper
        ) as shm_executor:
            shm_executor.warm()  # pool spawn + segment hosting paid up front
            shared_pipeline = StreamingPipeline(
                mapper,
                config,
                wave_size=shared_wave_size or max_pending,
                max_pending=max_pending,
                executor=shm_executor,
            )
            shared_streamed = shared_pipeline.run_all(reads)
        shared_stats = shared_pipeline.stats
        shared_rps = shared_stats.reads_per_second
        rows.append(
            {
                "id": "E1s_shared_streaming_vs_offline_vectorized",
                "metric": (
                    "shared-memory streaming pipeline speedup over offline "
                    "map-then-vectorized-align (warm pool)"
                ),
                "paper": float("nan"),
                "measured": shared_rps / vectorized_rps,
                "identical_results": identical(vectorized, shared_streamed),
                "offline_vectorized_reads_per_second": vectorized_rps,
                "reads": len(reads),
                "pairs": len(pairs),
                "shared_workers": shared_workers,
                "shared_wave_size": shared_wave_size or max_pending,
                "streaming_reads_per_second": shared_rps,
                "streaming_pairs_per_second": shared_stats.pairs_per_second,
                "stage_seconds": dict(shared_stats.stage_seconds),
                "wave_fill_efficiency": shared_stats.wave_fill_efficiency,
                "waves": shared_stats.waves,
                "pipeline_stats": shared_stats.as_dict(),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# E2s — short-read batched throughput: the multi-word vectorized engine on
#       Illumina-length (window_size > 64) configurations
# --------------------------------------------------------------------------- #
def _simulate_short_read_pairs(
    read_count: int, read_length: int, error_rate: float, seed: int
) -> List[Tuple[str, str]]:
    """Deterministic Illumina-like (read, reference-region) pairs."""
    rng = random.Random(seed)
    alphabet = "ACGT"
    pairs: List[Tuple[str, str]] = []
    for _ in range(read_count):
        pattern = "".join(rng.choice(alphabet) for _ in range(read_length))
        text = list(pattern)
        for _ in range(max(1, int(read_length * error_rate))):
            position = rng.randrange(len(text)) if text else 0
            roll = rng.random()
            if not text:
                text.insert(0, rng.choice(alphabet))
            elif roll < 0.6:
                text[position] = rng.choice(alphabet)
            elif roll < 0.8:
                text.insert(position, rng.choice(alphabet))
            else:
                del text[position]
        pairs.append((pattern, "".join(text) + "ACGTAC"))
    return pairs


def run_short_read_throughput_experiment(
    *,
    read_count: int = 160,
    read_length: int = 150,
    error_rate: float = 0.04,
    seed: int = 0,
    config: Optional[GenASMConfig] = None,
) -> List[Dict[str, object]]:
    """E2s: short-read batches through the multi-word vectorized engine.

    ``GenASMConfig.short_read`` workloads (window ≈ read length, so one
    window covers the whole read) need lanes wider than one machine word —
    a 150 bp window occupies three ``uint64`` words per lane.  Before the
    multi-word lane layout these batches silently fell back to the scalar
    per-pair aligner; this experiment measures the recovered lockstep
    speedup on a ``read_count``-lane Illumina-like batch and asserts the
    equivalence contract along the way.

    The paper has no corresponding number (its short-read runs use the
    same C++/CUDA kernels), so ``paper`` is NaN; the row carries an
    ``identical_results`` flag (byte-identical CIGARs/distances/spans vs
    the serial scalar loop) plus ``words_per_lane`` / ``vectorized``
    diagnostics proving no lane fell back.
    """
    config = config or GenASMConfig.short_read(read_length)
    pairs = _simulate_short_read_pairs(read_count, read_length, error_rate, seed)

    serial = BatchExecutor(backend="serial").run_alignments(pairs, config, name="serial")
    vectorized = BatchExecutor(backend="vectorized").run_alignments(
        pairs, config, name="vectorized"
    )

    identical = all(
        str(a.cigar) == str(b.cigar)
        and a.edit_distance == b.edit_distance
        and a.text_end == b.text_end
        for a, b in zip(serial.results, vectorized.results)
    )

    from repro.batch import BatchAlignmentEngine

    engine = BatchAlignmentEngine(config)
    return [
        {
            "id": "E2s_short_read_vectorized_vs_serial",
            "metric": (
                f"multi-word vectorized engine speedup over serial CPU loop "
                f"({read_length} bp short reads)"
            ),
            "paper": float("nan"),
            "measured": vectorized.speedup_over(serial),
            "identical_results": identical,
            "pairs": len(pairs),
            "read_length": read_length,
            "window_size": config.window_size,
            "words_per_lane": engine.words_per_lane,
            "all_lanes_vectorized": all(
                a.metadata.get("vectorized", False) for a in vectorized.results
            ),
            "serial_pairs_per_second": serial.items_per_second,
            "vectorized_pairs_per_second": vectorized.items_per_second,
            # Skip-ahead observability: walk iterations actually taken,
            # per-step iterations the match-run countdown skipped, and how
            # many runs fired (summed over every vectorized lane).
            "tb_walk_steps": sum(
                a.metadata.get("tb_walk_steps", 0) for a in vectorized.results
            ),
            "tb_walk_steps_saved": sum(
                a.metadata.get("tb_walk_steps_saved", 0) for a in vectorized.results
            ),
            "tb_match_runs": sum(
                a.metadata.get("tb_match_runs", 0) for a in vectorized.results
            ),
        }
    ]


# --------------------------------------------------------------------------- #
# E3s — alignment as a service: mixed multi-tenant workload vs per-client
#       offline runs
# --------------------------------------------------------------------------- #
def run_service_mixed_workload_experiment(
    *,
    clients: int = 4,
    pairs_per_client: int = 16,
    read_lengths: Sequence[int] = (120, 300, 500, 900),
    error_rate: float = 0.05,
    seed: int = 0,
    config: Optional[GenASMConfig] = None,
    wave_size: int = 32,
    max_inflight_per_tenant: int = 64,
    linger_seconds: Optional[float] = 0.005,
    workers: int = 1,
) -> List[Dict[str, object]]:
    """E3s: N concurrent simulated clients through the alignment service.

    Each client is a tenant with its own workload — ``pairs_per_client``
    simulated pairs at a client-specific read length (cycled from
    ``read_lengths``), so the mixed stream exercises the sorted wave
    scheduling across heterogeneous per-lane work.  The offline reference
    aligns each client's pairs independently with the vectorized backend
    (four separate ``run_alignments`` calls); the service run submits all
    clients concurrently from real threads and coalesces their pairs into
    shared waves.

    The paper has no corresponding number (its harness is single-tenant),
    so ``paper`` is NaN; the row carries ``identical_results`` (every
    client's service alignments byte-identical to its own offline run),
    per-tenant p50/p95/p99 request latency, and the wave/flush accounting
    of the shared stream.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import AlignmentService

    config = config or GenASMConfig()
    tenants = [f"tenant-{i}" for i in range(clients)]
    workloads = {
        tenant: _simulate_short_read_pairs(
            pairs_per_client,
            read_lengths[i % len(read_lengths)],
            error_rate,
            seed + i,
        )
        for i, tenant in enumerate(tenants)
    }

    offline = {}
    offline_seconds = 0.0
    for tenant in tenants:
        run = BatchExecutor(backend="vectorized").run_alignments(
            workloads[tenant], config, name=f"offline-{tenant}"
        )
        offline[tenant] = run.results
        offline_seconds += run.elapsed_seconds

    with AlignmentService(
        config,
        wave_size=wave_size,
        linger_seconds=linger_seconds,
        max_inflight_per_tenant=max_inflight_per_tenant,
        workers=workers,
    ) as service:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            futures = {
                tenant: pool.submit(
                    lambda t: service.submit(workloads[t], tenant=t).result(), tenant
                )
                for tenant in tenants
            }
            served = {tenant: future.result() for tenant, future in futures.items()}
        service_seconds = time.perf_counter() - start
        stats = service.stats

    identical = all(
        len(served[tenant]) == len(offline[tenant])
        and all(
            str(a.cigar) == str(b.cigar)
            and a.edit_distance == b.edit_distance
            and a.text_end == b.text_end
            for a, b in zip(served[tenant], offline[tenant])
        )
        for tenant in tenants
    )

    total_pairs = sum(len(pairs) for pairs in workloads.values())
    service_pps = total_pairs / max(1e-9, service_seconds)
    offline_pps = total_pairs / max(1e-9, offline_seconds)
    return [
        {
            "id": "E3s_service_mixed_workload",
            "metric": (
                f"{clients}-client coalesced service throughput over "
                "per-client offline vectorized runs"
            ),
            "paper": float("nan"),
            "measured": service_pps / offline_pps,
            "identical_results": identical,
            "clients": clients,
            "pairs": total_pairs,
            "wave_size": wave_size,
            "service_pairs_per_second": service_pps,
            "offline_pairs_per_second": offline_pps,
            "latency": stats.latency.as_dict(),
            "flushes": dict(stats.pipeline.flushes),
            "wave_fill_efficiency": stats.pipeline.wave_fill_efficiency,
            "max_inflight": dict(stats.max_inflight),
            "service_stats": stats.as_dict(),
        }
    ]


# --------------------------------------------------------------------------- #
# E2 — GPU speedups (execution model, composed with E1 where the paper
#      compares the GPU against CPU baselines)
# --------------------------------------------------------------------------- #
def run_gpu_speed_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
    cpu_rows: Optional[List[Dict[str, object]]] = None,
) -> List[Dict[str, object]]:
    """E2: GPU speedups over the CPU implementation, KSW2, Edlib, baseline GPU.

    GPU-vs-GPU and GPU-vs-CPU(GenASM) ratios come from the execution model
    (identical functional results, roofline timing on the paper's A6000 and
    Xeon specs).  GPU-vs-KSW2 and GPU-vs-Edlib compose the modelled
    GPU-vs-CPU(GenASM) ratio with the *measured* CPU ratios from E1, since
    mixing modelled seconds with measured Python seconds directly would be
    meaningless.
    """
    workload = workload or default_workload()
    config = config or GenASMConfig()
    pairs = workload.pairs
    multiplier = workload.scale_to_paper

    improved_kernel = GenASMKernelSpec(config, name="genasm-gpu-improved")
    baseline_kernel = GenASMKernelSpec(GenASMConfig.baseline(), name="genasm-gpu-baseline")

    improved_profiles = improved_kernel.profile_batch(pairs)
    baseline_profiles = baseline_kernel.profile_batch(pairs)

    gpu = GpuSimulator(A6000)
    cpu = CpuModel(XEON_GOLD_5118)
    gpu_improved = gpu.simulate(
        pairs, improved_kernel, profiles=improved_profiles, workload_multiplier=multiplier
    )
    gpu_baseline = gpu.simulate(
        pairs, baseline_kernel, profiles=baseline_profiles, workload_multiplier=multiplier
    )
    cpu_improved = cpu.simulate(
        pairs, improved_kernel, profiles=improved_profiles, workload_multiplier=multiplier
    )

    gpu_vs_cpu = gpu_improved.speedup_over(cpu_improved)
    gpu_vs_baseline_gpu = gpu_improved.speedup_over(gpu_baseline)

    cpu_rows = cpu_rows or run_cpu_speed_experiment(workload, config=config)
    cpu_lookup = {row["id"]: float(row["measured"]) for row in cpu_rows}

    rows = [
        {
            "id": "E2a_gpu_vs_cpu",
            "metric": "improved GenASM (GPU) speedup over improved GenASM (CPU)",
            "paper": PAPER_CLAIMS["E2a_gpu_vs_cpu"],
            "measured": gpu_vs_cpu,
        },
        {
            "id": "E2b_gpu_vs_ksw2",
            "metric": "improved GenASM (GPU) speedup over KSW2 (CPU)",
            "paper": PAPER_CLAIMS["E2b_gpu_vs_ksw2"],
            "measured": gpu_vs_cpu * cpu_lookup["E1a_cpu_vs_ksw2"],
        },
        {
            "id": "E2c_gpu_vs_edlib",
            "metric": "improved GenASM (GPU) speedup over Edlib (CPU)",
            "paper": PAPER_CLAIMS["E2c_gpu_vs_edlib"],
            "measured": gpu_vs_cpu * cpu_lookup["E1b_cpu_vs_edlib"],
        },
        {
            "id": "E2d_gpu_vs_baseline_gpu",
            "metric": "improved GenASM (GPU) speedup over baseline GenASM (GPU)",
            "paper": PAPER_CLAIMS["E2d_gpu_vs_baseline_gpu"],
            "measured": gpu_vs_baseline_gpu,
        },
    ]
    details = {
        "gpu_improved": gpu_improved.summary(),
        "gpu_baseline": gpu_baseline.summary(),
        "cpu_improved": cpu_improved.summary(),
        "baseline_dp_in_shared": gpu_baseline.dp_in_shared,
        "improved_dp_in_shared": gpu_improved.dp_in_shared,
    }
    for row in rows:
        row["pairs"] = len(pairs)
        row["details"] = details
    return rows


# --------------------------------------------------------------------------- #
# E3 — memory footprint reduction
# --------------------------------------------------------------------------- #
def run_memory_footprint_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
) -> List[Dict[str, object]]:
    """E3: per-window DP footprint of baseline vs. improved GenASM.

    Reports both the analytic model (with the average number of DP rows the
    improved algorithm actually evaluated on the workload) and the measured
    peak per-window stored bytes of the two implementations.
    """
    workload = workload or default_workload(max_pairs=8)
    config = config or GenASMConfig()
    pairs = workload.pairs

    improved = GenASMAligner(config, name="genasm-improved")
    baseline = GenASMAligner(GenASMConfig.baseline(), name="genasm-baseline")

    improved_peaks: List[float] = []
    baseline_peaks: List[float] = []
    rows_used: List[float] = []
    for pattern, text in pairs:
        a_imp = improved.align(pattern, text)
        a_base = baseline.align(pattern, text)
        improved_peaks.append(a_imp.metadata["peak_window_bytes"])
        baseline_peaks.append(a_base.metadata["peak_window_bytes"])
        rows_used.append(a_imp.metadata["rows_computed"] / max(1, a_imp.metadata["windows"]))

    avg_rows = sum(rows_used) / max(1, len(rows_used))
    model = MemoryFootprint.from_config(config, rows_used=int(round(avg_rows)))
    measured_reduction = (sum(baseline_peaks) / len(baseline_peaks)) / max(
        1.0, sum(improved_peaks) / len(improved_peaks)
    )

    return [
        {
            "id": "E3_footprint_reduction",
            "metric": "DP-table memory-footprint reduction (baseline / improved)",
            "paper": PAPER_CLAIMS["E3_footprint_reduction"],
            "measured": measured_reduction,
            "model_reduction": model.reduction_factor,
            "baseline_bytes_per_window": model.baseline_bytes,
            "improved_bytes_per_window": model.improved_bytes,
            "avg_rows_used": avg_rows,
            "pairs": len(pairs),
        }
    ]


# --------------------------------------------------------------------------- #
# E4 — memory access reduction
# --------------------------------------------------------------------------- #
def run_memory_access_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
) -> List[Dict[str, object]]:
    """E4: DP-table accesses (and bytes) of baseline vs. improved GenASM."""
    workload = workload or default_workload(max_pairs=8)
    config = config or GenASMConfig()
    pairs = workload.pairs

    improved = GenASMAligner(config, name="genasm-improved")
    baseline = GenASMAligner(GenASMConfig.baseline(), name="genasm-baseline")

    improved_counter = AccessCounter()
    baseline_counter = AccessCounter()
    for pattern, text in pairs:
        improved.align(pattern, text, counter=improved_counter)
        baseline.align(pattern, text, counter=baseline_counter)

    access_reduction = baseline_counter.total_accesses / max(1, improved_counter.total_accesses)
    byte_reduction = baseline_counter.total_bytes / max(1, improved_counter.total_bytes)
    return [
        {
            "id": "E4_access_reduction",
            "metric": "DP-table memory-access reduction (baseline / improved)",
            "paper": PAPER_CLAIMS["E4_access_reduction"],
            "measured": byte_reduction,
            "access_count_reduction": access_reduction,
            "baseline_accesses": baseline_counter.total_accesses,
            "improved_accesses": improved_counter.total_accesses,
            "baseline_bytes": baseline_counter.total_bytes,
            "improved_bytes": improved_counter.total_bytes,
            "pairs": len(pairs),
        }
    ]


# --------------------------------------------------------------------------- #
# E5 — accuracy / equivalence
# --------------------------------------------------------------------------- #
def run_accuracy_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
    oracle_limit: int = 2_000,
) -> List[Dict[str, object]]:
    """E5: improved GenASM ≡ baseline GenASM, and both match the DP optimum.

    Pairs whose pattern is short enough (``oracle_limit``) are also checked
    against the full Needleman–Wunsch optimum; the fraction of pairs where
    the windowed heuristic attains the optimum is reported.
    """
    workload = workload or default_workload(max_pairs=8)
    config = config or GenASMConfig()
    pairs = workload.pairs

    improved = GenASMAligner(config, name="genasm-improved")
    baseline = GenASMAligner(GenASMConfig.baseline(), name="genasm-baseline")
    edlib = EdlibLikeAligner("prefix")

    identical = 0
    optimal = 0
    oracle_checked = 0
    for pattern, text in pairs:
        a_imp = improved.align(pattern, text)
        a_base = baseline.align(pattern, text)
        a_imp.validate()
        a_base.validate()
        if a_imp.edit_distance == a_base.edit_distance:
            identical += 1
        if len(pattern) <= oracle_limit:
            oracle_checked += 1
            optimum = edlib.align(pattern, text).edit_distance
            if a_imp.edit_distance == optimum:
                optimal += 1

    return [
        {
            "id": "E5_accuracy",
            "metric": "fraction of pairs where improved ≡ baseline GenASM",
            "paper": PAPER_CLAIMS["E5_accuracy"],
            "measured": identical / max(1, len(pairs)),
            "optimal_fraction": optimal / max(1, oracle_checked),
            "oracle_checked": oracle_checked,
            "pairs": len(pairs),
        }
    ]


# --------------------------------------------------------------------------- #
# A1 — per-improvement ablation
# --------------------------------------------------------------------------- #
def run_ablation_experiment(
    workload: Optional[AlignmentWorkload] = None,
    *,
    config: Optional[GenASMConfig] = None,
) -> List[Dict[str, object]]:
    """A1: contribution of each of the three improvements in isolation."""
    workload = workload or default_workload(max_pairs=6)
    base_config = config or GenASMConfig()
    pairs = workload.pairs

    variants = {
        "baseline": GenASMConfig.baseline(),
        "entry_compression_only": GenASMConfig.baseline().with_improvements(entry_compression=True),
        "early_termination_only": GenASMConfig.baseline().with_improvements(early_termination=True),
        "traceback_band_only": GenASMConfig.baseline().with_improvements(traceback_band=True),
        "all_improvements": base_config,
    }

    baseline_counter = AccessCounter()
    baseline_aligner = GenASMAligner(variants["baseline"])
    baseline_peak = 0.0
    baseline_seconds = _time_batch(
        lambda p, t: baseline_aligner.align(p, t, counter=baseline_counter), pairs
    )
    for pattern, text in pairs[:2]:
        baseline_peak = max(
            baseline_peak, baseline_aligner.align(pattern, text).metadata["peak_window_bytes"]
        )

    rows: List[Dict[str, object]] = []
    for name, variant in variants.items():
        counter = AccessCounter()
        aligner = GenASMAligner(variant, name=name)
        seconds = _time_batch(lambda p, t: aligner.align(p, t, counter=counter), pairs)
        peak = max(
            aligner.align(pattern, text).metadata["peak_window_bytes"]
            for pattern, text in pairs[:2]
        )
        rows.append(
            {
                "id": f"A1_{name}",
                "metric": f"ablation: {name}",
                "paper": float("nan"),
                "measured": baseline_counter.total_bytes / max(1, counter.total_bytes),
                "access_reduction": baseline_counter.total_accesses / max(1, counter.total_accesses),
                "footprint_reduction": baseline_peak / max(1.0, peak),
                "speedup_vs_baseline": baseline_seconds / max(1e-9, seconds),
                "pairs": len(pairs),
            }
        )
    return rows
