"""Workload inputs, set-up and the measured pass of each workload.

Every workload's inputs are *mapped candidates*: reads simulated from a
repeat-bearing synthetic genome, mapped with the all-chains minimizer
mapper, each chain yielding one (read, reference-region) pair.  The inputs
are a pure function of the seed.

:func:`generate` runs in a child process (see ``run.py``) so that input
generation and the serial reference pass never touch the measured
process's peak resident set; it returns an :class:`Inputs` holding the
pairs plus the serial ``GenASMAligner`` answers every run is checked
against.
"""

from __future__ import annotations

import io
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import BatchAlignmentEngine, GenASMAligner, GenASMConfig, StreamingPipeline
from repro.genomics.errors import ErrorModel
from repro.genomics.fasta import iter_fastq, write_fastq
from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import IlluminaSimulator, PacBioSimulator
from repro.harness.dataset import build_paper_dataset
from repro.io import SamSink, write_sam
from repro.mapping.mapper import Mapper
from repro.service import AlignmentService
from repro.telemetry.trace import NULL_TRACER

clock = time.perf_counter

#: Lanes per offline engine call and per streaming wave.
LANES = 256
#: Set-up is repeated this many times per run, each in a fresh process;
#: ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Pairs of the warm-up pass that ends every set-up.
WARMUP_PAIRS = 8
#: Reads of long_pacbio.  A lockstep batch runs as long as its slowest
#: lane, and a few retry-heavy pairs decide how slow that is: at 96 reads
#: (≈117 pairs) whether a seed drew them moved the best-pass throughput
#: by 0.18 (inter-quartile share of the median) across seeds 31–40, and at
#: 192 (≈235 pairs, still one 256-lane batch) every seed has them: 0.026.
LONG_READS = 192
#: Candidate pairs of fastq_to_sam: between 384 and 511, the pipeline's
#: defaults (256-lane waves, tails under 128 merged, 512 pending at most)
#: always cut two waves, 256 lanes and the rest.  Near the top of that band
#: the second wave is nearly full too, so, as for LONG_READS, every seed
#: draws the slow lanes: best-pass throughput across seeds 31–40 spread by
#: 0.226 at 400 candidates and by 0.065 at 490.
FASTQ_PAIRS = 490
#: Open-loop clients of the service workload, served round-robin.
SERVICE_TENANTS = 4
#: Percentile of a run's pass times that throughput is quoted at.  On a shared host the CPU runs at one of two speeds (about
#: 1.8x apart) for seconds to tens of seconds at a time, so a run's
#: *median* pass lands in whichever speed dominated it: over eight runs of
#: one seed its inter-quartile spread was 0.36 of its median, against 0.04
#: for the slowest pass, because nearly every run spends some time at the
#: slow speed.  Medians are still printed in the run's detail line.
SUSTAINED_PERCENTILE = 90

Expected = Tuple[str, int]

#: Every workload this benchmark can run, with the reason it exists.
#: BENCHMARK.json lists the ones the steadiness budget allows in every
#: measured set; the others stay runnable by name for a ledger on demand.
WORKLOADS: Dict[str, str] = {
    "long_pacbio": (
        "the paper's workload: PacBio-CLR mapped candidates at W=64, multi-window "
        "single-word lanes, retry-heavy DC; DC and lane-refill changes show here first"
    ),
    "short_illumina": (
        "Illumina-error 150 bp candidates at W=150: 3-word lanes, little windowing, "
        "the case where vectorized runs slower than serial"
    ),
    "fastq_to_sam": (
        "HiFi FASTQ file to SAM file through StreamingPipeline: the only workload "
        "with ingest, mapping, wave batching and SAM emit in the timed loop"
    ),
    "service_open": (
        "open-loop Illumina read requests to AlignmentService from 4 tenants: "
        "~2-lane waves take the scalar-traceback path offline runs barely touch"
    ),
}


# --------------------------------------------------------------------------- #
# Inputs (built in a child process)
# --------------------------------------------------------------------------- #
@dataclass
class Inputs:
    """One workload's generated inputs plus the serial reference answers."""

    workload: str
    seed: int
    config: GenASMConfig
    pairs: List[Tuple[str, str]]
    #: serial ``GenASMAligner`` (CIGAR, edit distance) per pair
    expected: List[Expected]
    #: wall seconds of the serial reference pass over ``pairs``
    serial_seconds: float
    reads: int
    #: service_open: pair indices of each request (one read's candidates)
    requests: List[List[int]] = field(default_factory=list)
    #: fastq_to_sam: reads file, reference genome and expected SAM text
    fastq_path: Optional[str] = None
    genome: Optional[SyntheticGenome] = None
    expected_sam: Optional[str] = None

    @property
    def pattern_bases(self) -> int:
        return sum(len(pattern) for pattern, _ in self.pairs)


def _genome(seed: int, repeat_length: int) -> SyntheticGenome:
    """The genome ``build_paper_dataset`` simulates for reads of this length."""
    return SyntheticGenome.random(
        {"chr1": 150_000, "chr2": 75_000},
        seed=seed,
        repeat_fraction=0.08,
        repeat_length=repeat_length,
    )


def _serial(config: GenASMConfig, pairs) -> Tuple[List[Expected], float, list]:
    aligner = GenASMAligner(config)
    start = clock()
    alignments = [aligner.align(pattern, text) for pattern, text in pairs]
    seconds = clock() - start
    expected = [(str(a.cigar), a.edit_distance) for a in alignments]
    return expected, seconds, alignments


def generate(workload: str, seed: int, out_dir: str, reference: bool = True) -> Inputs:
    """Build ``workload``'s inputs from ``seed`` (and its serial answers)."""
    if workload == "long_pacbio":
        config = GenASMConfig()
        data = build_paper_dataset(read_count=LONG_READS, read_length=500, seed=seed)
        pairs, reads = data.pairs, len(data.reads)
    elif workload == "short_illumina":
        config = GenASMConfig.short_read(150)
        data = build_paper_dataset(
            read_count=400, read_length=150, seed=seed, error_model=ErrorModel.illumina()
        )
        pairs, reads = data.pairs, len(data.reads)
    elif workload == "fastq_to_sam":
        return _generate_fastq(seed, out_dir, reference)
    elif workload == "service_open":
        return _generate_service(seed, reference)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    expected, seconds = [], 0.0
    if reference:
        expected, seconds, _ = _serial(config, pairs)
    return Inputs(workload, seed, config, pairs, expected, seconds, reads)


def _generate_fastq(seed: int, out_dir: str, reference: bool) -> Inputs:
    config = GenASMConfig()
    genome = _genome(seed, repeat_length=1000)
    simulator = PacBioSimulator(
        mean_length=1000, std_length=200, error_model=ErrorModel.pacbio_hifi(), seed=seed + 1
    )
    # Whole reads are kept until FASTQ_PAIRS candidates: the candidate count
    # decides how the pipeline cuts waves, and a seed-dependent count would
    # flip runs between one merged wave and two.
    mapper = Mapper(genome, all_chains=True)
    reads, candidates, pairs = [], [], []
    for read in simulator.simulate(genome, FASTQ_PAIRS // 2):
        if len(pairs) >= FASTQ_PAIRS:
            break
        reads.append(read)
        for candidate in mapper.map_read(read):
            candidates.append(candidate)
            pairs.append(mapper.candidate_region_sequence(candidate, read.sequence))
    path = Path(out_dir) / f"fastq_to_sam-{seed}.fastq"
    write_fastq(path, [(r.name, r.sequence, r.quality) for r in reads])
    expected, seconds, sam = [], 0.0, None
    if reference:
        expected, seconds, alignments = _serial(config, pairs)
        qualities = {r.name: r.quality for r in reads}
        handle = io.StringIO()
        write_sam(handle, list(zip(candidates, alignments)), genome, qualities=qualities)
        sam = handle.getvalue()
    return Inputs(
        "fastq_to_sam", seed, config, pairs, expected, seconds, len(reads),
        fastq_path=str(path), genome=genome, expected_sam=sam,
    )


def _generate_service(seed: int, reference: bool) -> Inputs:
    config = GenASMConfig.short_read(150)
    genome = _genome(seed, repeat_length=500)
    reads = IlluminaSimulator(150, seed=seed + 1).simulate(genome, 400)
    mapper = Mapper(genome, all_chains=True)
    pairs: List[Tuple[str, str]] = []
    requests: List[List[int]] = []
    for read in reads:
        group = []
        for candidate in mapper.map_read(read):
            pattern, text = mapper.candidate_region_sequence(candidate, read.sequence)
            if pattern and text:
                group.append(len(pairs))
                pairs.append((pattern, text))
        if group:
            requests.append(group)
    expected, seconds = [], 0.0
    if reference:
        expected, seconds, _ = _serial(config, pairs)
    return Inputs(
        "service_open", seed, config, pairs, expected, seconds, len(reads),
        requests=requests,
    )


def warmup_pairs(config: GenASMConfig) -> List[Tuple[str, str]]:
    """Fixed two-window pairs for set-up's warm-up pass, the same for every seed.

    Warming up on the workload's own first pairs would make ``setup_s``
    depend on how hard those pairs happen to be.
    """
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(WARMUP_PAIRS):
        pattern = rng.choice(list("ACGT"), size=2 * config.window_size)
        text = pattern.copy()
        flips = rng.random(text.size) < 0.05
        text[flips] = rng.choice(list("ACGT"), size=int(flips.sum()))
        pairs.append(("".join(pattern), "".join(text) + "ACGT" * 4))
    return pairs


# --------------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------------- #
def percentile(samples, q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1], len(ordered) - rank


def mismatches(alignments, expected: List[Expected]) -> int:
    """Pairs whose CIGAR or edit distance differs from the serial answer."""
    if len(alignments) != len(expected):
        return max(len(alignments), len(expected))
    return sum(
        1
        for alignment, (cigar, distance) in zip(alignments, expected)
        if str(alignment.cigar) != cigar or alignment.edit_distance != distance
    )


def sam_mismatches(text: str, expected: str) -> int:
    """SAM lines that differ from the serial reference SAM."""
    got, want = text.splitlines(), expected.splitlines()
    return sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))


def run_passes(seconds: float, run_pass: Callable[[], None], minimum: int) -> None:
    """Run whole passes for about ``seconds``.

    A pass is started only while it is expected to end within the window
    (estimated from the median pass so far), but at least ``minimum`` run.
    """
    times: List[float] = []
    start = clock()
    while True:
        elapsed = clock() - start
        if len(times) >= minimum and elapsed + statistics.median(times) > seconds:
            return
        begin = clock()
        run_pass()
        times.append(clock() - begin)


@dataclass
class Pass:
    """One measured pass of a workload, already checked against serial."""

    seconds: float
    #: candidate pattern bases the pass aligned
    bases: int
    #: latency of each unit (pair or request); ``inf`` for a failed unit
    latencies: List[float]
    #: units whose output differed from serial or never arrived
    failed: int
    alignments: list
    #: per-layer figures read from the program's public stats
    layers: Dict[str, float] = field(default_factory=dict)
    #: reasons the pass is invalid even though every output was correct
    invalid: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class Outcome:
    """The tally of every pass of one run, traced or not."""

    attempted: int = 0
    failed: int = 0
    invalid: List[str] = field(default_factory=list)
    passes: List[Pass] = field(default_factory=list)


class PassFailed(RuntimeError):
    """The program raised during a pass; its units are counted as failed."""


# --------------------------------------------------------------------------- #
# Runners: one workload's set-up instance and its measured pass
# --------------------------------------------------------------------------- #
class Runner:
    """Build a workload's engine, pipeline or service; run checked passes.

    Construction is the workload's set-up, ending with one warm-up pass
    over :func:`warmup_pairs`.  :meth:`measure` runs one pass — inside a
    :class:`ledger.Ledger` recording when one is given, so traced and
    untraced passes share this code — and tallies it into an
    :class:`Outcome`.
    """

    #: the public call a pass goes through, for error reports
    entry = ""
    #: fewest passes a run makes, however long they take
    minimum_passes = 3
    #: per-layer figures of the set-up (``mapping.index_s``)
    setup_layers: Dict[str, float] = {}

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs

    @property
    def units(self) -> int:
        """Units one pass attempts: pairs, or requests for the service."""
        return len(self.inputs.pairs)

    @property
    def count_scope(self) -> str:
        """What a pass's exact counts depend on besides seed and program."""
        return ""

    def execute(self) -> Pass:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def measure(self, outcome: Outcome, ledger=None, records=None) -> Pass:
        outcome.attempted += self.units
        try:
            if ledger is None:
                done = self.execute()
            else:
                with ledger.recording(records):
                    done = self.execute()
        except Exception as error:
            print(f"perfbench: exception in {self.entry}:", file=sys.stderr)
            traceback.print_exc()
            outcome.failed += self.units
            raise PassFailed(f"{self.entry} raised {error!r}") from error
        outcome.failed += done.failed
        outcome.invalid.extend(done.invalid)
        return done


class OfflineRunner(Runner):
    """long_pacbio, short_illumina: one ``align_pairs`` call per pass."""

    entry = "BatchAlignmentEngine.align_pairs"

    def __init__(self, inputs: Inputs, tracer=NULL_TRACER, **_) -> None:
        super().__init__(inputs)
        self.engine = BatchAlignmentEngine(inputs.config, max_lanes=LANES)
        self.engine.align_pairs(warmup_pairs(inputs.config))

    def execute(self) -> Pass:
        pairs = self.inputs.pairs
        start = clock()
        alignments = self.engine.align_pairs(pairs)
        seconds = clock() - start
        wrong = mismatches(alignments, self.inputs.expected)
        # Every pair of a batch call resolves when the call returns.
        return Pass(
            seconds, self.inputs.pattern_bases, [seconds] * len(pairs),
            min(len(pairs), wrong), alignments,
        )


class FastqRunner(Runner):
    """fastq_to_sam: FASTQ file -> map -> waves -> align -> SAM file."""

    entry = "StreamingPipeline.run"

    def __init__(self, inputs: Inputs, tracer=NULL_TRACER, out_dir: Path = Path("."), **_):
        super().__init__(inputs)
        self.tracer = tracer
        start = clock()
        mapper = Mapper(inputs.genome, all_chains=True)
        self.setup_layers = {"mapping.index_s": clock() - start}
        self.pipeline = StreamingPipeline(mapper, inputs.config, wave_size=LANES, tracer=tracer)
        self.pipeline.align_pairs(warmup_pairs(inputs.config))
        suffix = "traced.sam" if tracer.enabled else "sam"
        self.sam_path = Path(out_dir) / f"fastq_to_sam-{inputs.seed}.{suffix}"

    def execute(self) -> Pass:
        inputs, tracer = self.inputs, self.tracer
        stamps: List[float] = []
        alignments = []
        start = clock()
        with tracer.span("ingest.qualities"):
            qualities = {name: quality for name, _, quality in iter_fastq(inputs.fastq_path)}
        with open(self.sam_path, "w", encoding="ascii") as handle:
            sink = SamSink(handle, inputs.genome, qualities=qualities)
            for mapped in self.pipeline.run(inputs.fastq_path, sink=sink):
                stamps.append(clock())
                alignments.append(mapped.alignment)
        seconds = clock() - start

        text = self.sam_path.read_text(encoding="ascii")
        units = len(inputs.pairs)
        wrong = mismatches(alignments, inputs.expected)
        wrong += sam_mismatches(text, inputs.expected_sam)
        # A pair is resolved once the pipeline yields it (its record written).
        latencies = [stamp - start for stamp in stamps[:units]]
        latencies += [math.inf] * (units - len(latencies))
        stats = self.pipeline.stats
        layers = {
            "pipeline.stage.map_s": stats.stage_seconds["map"],
            "pipeline.stage.align_s": stats.stage_seconds["align"],
            "pipeline.waves": stats.waves,
            "pipeline.wave_fill": stats.wave_fill_efficiency,
            "pipeline.max_pending": stats.max_pending,
            "pipeline.max_reorder": stats.max_reorder_buffer,
            "io.records": sum(1 for line in text.splitlines() if not line.startswith("@")),
            "io.sam_bytes": len(text.encode("ascii")),
        }
        return Pass(
            seconds, inputs.pattern_bases, latencies, min(units, wrong), alignments, layers
        )


# --------------------------------------------------------------------------- #
# service_open: open-loop requests against AlignmentService
# --------------------------------------------------------------------------- #
@dataclass
class OpenLoop:
    """Schedule and observations of one open-loop send."""

    due: List[float]
    lag: List[float]
    done: List[Optional[float]]
    futures: list
    #: (send time, admitted-but-unfinished requests) at each send
    backlog: List[Tuple[float, int]]
    finished_at: float = 0.0


def open_loop(service, inputs: Inputs, rate: float, count: int) -> OpenLoop:
    """Send ``count`` requests on a ``rate``-per-second schedule, regardless of replies.

    Requests cycle through the read pool, round-robin across tenants.  Each
    request's completion time is stamped by a done-callback, which runs on
    the service's dispatcher thread as the future resolves.
    """
    loop = OpenLoop([], [], [None] * count, [], [])
    completed = []  # list.append is atomic; len() gives the completed count

    def on_done(index: int, _future) -> None:
        loop.done[index] = clock()
        completed.append(index)

    origin = clock() + 0.01
    for index in range(count):
        due = origin + index / rate
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        sent = clock()
        request = inputs.requests[index % len(inputs.requests)]
        future = service.submit(
            [inputs.pairs[i] for i in request], tenant=f"tenant{index % SERVICE_TENANTS}"
        )
        future.add_done_callback(partial(on_done, index))
        loop.due.append(due)
        loop.lag.append(sent - due)
        loop.futures.append(future)
        loop.backlog.append((sent, index + 1 - len(completed)))
    service.drain()
    loop.finished_at = clock()
    return loop


def backlog_growth(backlog: List[Tuple[float, int]]) -> float:
    """Mean backlog of the last quarter of sends minus that of the first."""
    quarter = max(1, len(backlog) // 4)
    first = statistics.mean(b for _, b in backlog[:quarter])
    last = statistics.mean(b for _, b in backlog[-quarter:])
    return last - first


class ServiceRunner(Runner):
    """service_open: one pass is ``rate * seconds`` open-loop requests."""

    entry = "AlignmentService.submit"
    minimum_passes = 1

    def __init__(
        self, inputs: Inputs, tracer=NULL_TRACER, rate: float = 1.0, seconds: float = 1.0, **_
    ) -> None:
        super().__init__(inputs)
        self.rate = rate
        self.count = int(rate * seconds)
        self.service = AlignmentService(inputs.config, tracer=tracer)
        self.service.submit(warmup_pairs(inputs.config), tenant="warmup").result(timeout=60)

    @property
    def units(self) -> int:
        return self.count

    @property
    def count_scope(self) -> str:
        # The core.* counts sum over the requests sent, which cycle the pool.
        return f"{self.count} requests"

    def close(self) -> None:
        self.service.close()

    def execute(self) -> Pass:
        inputs, rate = self.inputs, self.rate
        loop = open_loop(self.service, inputs, rate, self.count)
        latencies, alignments, failed, bases = [], [], 0, 0
        for index, future in enumerate(loop.futures):
            request = inputs.requests[index % len(inputs.requests)]
            bases += sum(len(inputs.pairs[i][0]) for i in request)
            ok = False
            if future.done() and loop.done[index] is not None:
                if future.exception() is None:
                    result = future.result()
                    ok = mismatches(result, [inputs.expected[i] for i in request]) == 0
                    alignments.extend(result)
                else:
                    print(
                        f"perfbench: request {index} raised {future.exception()!r}",
                        file=sys.stderr,
                    )
            if ok:
                latencies.append(loop.done[index] - loop.due[index])
            else:
                failed += 1
                latencies.append(math.inf)

        done = Pass(loop.finished_at - loop.due[0], bases, latencies, failed, alignments)
        p50, _ = percentile(latencies, 50)
        lag_p50 = statistics.median(loop.lag)
        growth = backlog_growth(loop.backlog)
        limit = max(10.0, 0.25 * rate)
        if growth > limit:
            done.invalid.append(
                f"backlog grew by {growth:.1f} requests across the run (limit {limit:.1f}): "
                f"rate {rate}/s is beyond capacity"
            )
        if lag_p50 >= 0.5 * p50:
            done.invalid.append(
                f"generator median lateness {lag_p50 * 1e3:.2f} ms rivals p50 {p50 * 1e3:.2f} ms"
            )
        done.details.update(
            rate_per_s=rate,
            requests=self.count,
            gen_lag_p50_ms=lag_p50 * 1e3,
            gen_lag_max_ms=max(loop.lag) * 1e3,
            backlog_growth=growth,
        )
        stats = self.service.stats
        waves = stats.pipeline.waves
        done.layers = {
            "service.waves": waves,
            "service.lanes_per_wave": stats.pipeline.lanes_total / waves if waves else 0.0,
            "service.flushes.timeout": stats.pipeline.flushes["timeout"],
            "service.flushes.idle": stats.pipeline.flushes["idle"],
            "service.flushes.size": stats.pipeline.flushes["size"],
            "service.inflight_hw": max(stats.max_inflight.values(), default=0),
            "service.gen_lag_ms": lag_p50 * 1e3,
            "service.gen_lag_max_ms": max(loop.lag) * 1e3,
        }
        return done


RUNNERS: Dict[str, Callable[..., Runner]] = {
    "long_pacbio": OfflineRunner,
    "short_illumina": OfflineRunner,
    "fastq_to_sam": FastqRunner,
    "service_open": ServiceRunner,
}


def run_untraced(runner: Runner, seconds: float) -> Outcome:
    """Measured passes of ``runner`` for about ``seconds``."""
    outcome = Outcome()

    def one_pass():
        done = runner.measure(outcome)
        done.alignments = []  # checked; kept, they would grow the measured RSS pass by pass
        outcome.passes.append(done)

    try:
        run_passes(seconds, one_pass, runner.minimum_passes)
    except PassFailed:
        pass  # counted as failed units by Runner.measure
    return outcome
