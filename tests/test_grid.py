"""Tests for the declarative experiment-grid runner (repro.harness.grid)."""

import json

import pytest

from repro.harness.grid import GRID_AXES, ExperimentGrid, GridCell, GridRunner
from repro.telemetry.bench import BenchRecorder

TINY_WORKLOAD = {
    "read_count": 6,
    "read_length": 200,
    "genome_length": 20_000,
    "seed": 1,
}


def tiny_spec(**overrides):
    spec = {
        "name": "unit_grid",
        "workloads": {"tiny": dict(TINY_WORKLOAD)},
        "backends": ["serial", "vectorized"],
        "window_sizes": [64],
        "wave_sizes": [32],
        "gate": {
            "metric": "pairs_per_second",
            "cell": {"backend": "vectorized"},
            "reference_cell": {"backend": "serial"},
        },
    }
    spec.update(overrides)
    return spec


@pytest.fixture
def bench_path(tmp_path):
    path = tmp_path / "BENCH_grid.json"
    path.write_text(
        json.dumps(
            {
                "grid": {
                    "benchmark": "unit grid",
                    # Correctness (identical alignments) is the real gate
                    # here; the throughput floor is set far below any
                    # plausible ratio so timing noise cannot flake the test.
                    "regression_threshold": 0.01,
                    "baseline": {"date": "2026-08-07", "ratio": 1.0},
                }
            },
            indent=2,
        )
        + "\n"
    )
    return path


class TestExperimentGridSpec:
    def test_from_dict_roundtrip(self):
        grid = ExperimentGrid.from_dict(tiny_spec())
        assert grid.name == "unit_grid"
        assert grid.backends == ["serial", "vectorized"]
        assert grid.history_key == "grid_history"
        assert grid.section == "grid"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown grid spec keys"):
            ExperimentGrid.from_dict(tiny_spec(typo_axis=[1]))

    def test_name_and_workloads_required(self):
        with pytest.raises(ValueError, match="'name' and 'workloads'"):
            ExperimentGrid.from_dict({"workloads": {"w": {}}})
        with pytest.raises(ValueError):
            ExperimentGrid.from_dict({"name": "x"})

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError, match="at least one workload"):
            ExperimentGrid(name="x", workloads={})

    def test_history_key_must_end_in_history(self):
        with pytest.raises(ValueError, match="must end in 'history'"):
            ExperimentGrid.from_dict(tiny_spec(history_key="grid_rows"))

    def test_gate_keys_validated(self):
        with pytest.raises(ValueError, match="missing"):
            ExperimentGrid.from_dict(
                tiny_spec(gate={"metric": "pairs_per_second"})
            )

    def test_cells_cartesian_product_in_axis_order(self):
        grid = ExperimentGrid.from_dict(
            tiny_spec(backends=["serial", "vectorized"], wave_sizes=[32, 64])
        )
        cells = grid.cells()
        assert len(cells) == 4
        assert cells[0] == GridCell("tiny", "serial", 64, 32)
        assert cells[-1] == GridCell("tiny", "vectorized", 64, 64)

    def test_config_for_clamps_overlap(self):
        grid = ExperimentGrid.from_dict(tiny_spec())
        base_overlap = grid.base_config.window_overlap
        assert grid.config_for(64).window_overlap == min(base_overlap, 63)
        assert grid.config_for(8).window_overlap == min(base_overlap, 7)
        assert grid.config_for(8).window_size == 8

    def test_select_cell(self):
        grid = ExperimentGrid.from_dict(tiny_spec())
        cell = grid.select_cell({"backend": "serial"})
        assert cell.backend == "serial"
        with pytest.raises(ValueError, match="unknown grid axes"):
            grid.select_cell({"lane_count": 32})
        with pytest.raises(ValueError, match="matches 2 cells"):
            grid.select_cell({"window_size": 64})


class TestGridRunner:
    @pytest.fixture(scope="class")
    def run_result(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "BENCH_grid.json"
        path.write_text(
            json.dumps(
                {
                    "grid": {
                        "regression_threshold": 0.01,
                        "baseline": {"date": "2026-08-07", "ratio": 1.0},
                    }
                }
            )
            + "\n"
        )
        grid = ExperimentGrid.from_dict(tiny_spec())
        runner = GridRunner(grid, path)
        rows = runner.run()
        return grid, runner, rows, path

    def test_one_row_per_cell_with_axis_values(self, run_result):
        grid, _, rows, _ = run_result
        assert len(rows) == len(grid.cells())
        for row, cell in zip(rows, grid.cells()):
            assert all(row[axis] == getattr(cell, axis) for axis in GRID_AXES)
            assert row["pairs"] > 0
            assert row["pairs_per_second"] > 0
            assert row["identical"] is True
            assert 0.0 <= row["mean_identity"] <= 1.0

    def test_rows_persisted_with_provenance(self, run_result):
        grid, _, rows, path = run_result
        data = json.loads(path.read_text())
        stored = data[grid.history_key]
        assert len(stored) == len(rows)
        for row in stored:
            assert row["date"] and row["git_sha"]
            assert row["config_fingerprint"]
            assert row["grid"] == grid.name

    def test_check_passes_gate(self, run_result):
        _, runner, rows, _ = run_result
        verdict = runner.check(rows)
        assert verdict["ok"] is True
        assert verdict["non_identical"] == 0
        gate = verdict["gate"]
        assert gate["metric"] == "pairs_per_second"
        assert gate["value"] > 0 and gate["reference_value"] > 0
        assert verdict["floor"] == pytest.approx(0.01)

    def test_check_fails_on_non_identical_cell(self, run_result):
        _, runner, rows, _ = run_result
        broken = [dict(row) for row in rows]
        broken[0]["identical"] = False
        verdict = runner.check(broken)
        assert verdict["ok"] is False
        assert verdict["non_identical"] == 1

    def test_check_without_gate(self, run_result):
        _, _, rows, path = run_result
        grid = ExperimentGrid.from_dict(tiny_spec(gate=None))
        verdict = GridRunner(grid, path).check(rows)
        assert verdict == {"ok": True, "gate": None, "non_identical": 0}

    def test_vectorized_cell_checked_against_serial(self, bench_path, monkeypatch):
        """A wrong vectorized CIGAR is caught: the reference is not the engine."""
        from repro.batch.engine import BatchAlignmentEngine
        from repro.core.cigar import Cigar

        align_pairs = BatchAlignmentEngine.align_pairs

        def corrupt_first(self, pairs):
            alignments = align_pairs(self, pairs)
            alignments[0].cigar = Cigar.from_string(f"{len(alignments[0].pattern)}I")
            return alignments

        monkeypatch.setattr(BatchAlignmentEngine, "align_pairs", corrupt_first)
        grid = ExperimentGrid.from_dict(tiny_spec(backends=["vectorized"], gate=None))
        rows = GridRunner(grid, bench_path).run(append=False)
        assert rows[0]["identical"] is False

    def test_failing_cell_is_recorded_and_sweep_continues(self, bench_path, monkeypatch):
        """One raising backend fails its own cell, not the sweep or the save."""
        from repro.batch.engine import BatchAlignmentEngine

        def explode(self, pairs):
            raise RuntimeError("wave exploded")

        monkeypatch.setattr(BatchAlignmentEngine, "align_pairs", explode)
        grid = ExperimentGrid.from_dict(tiny_spec(backends=["vectorized", "serial"]))
        runner = GridRunner(grid, bench_path)
        rows = runner.run()

        failed, healthy = rows
        assert failed["backend"] == "vectorized"
        assert failed["identical"] is False
        assert failed["error"] == "RuntimeError: wave exploded"
        assert "pairs_per_second" not in failed
        assert healthy["backend"] == "serial"
        assert healthy["identical"] is True and "error" not in healthy
        assert healthy["pairs_per_second"] > 0

        stored = json.loads(bench_path.read_text())[grid.history_key]
        assert [row["backend"] for row in stored] == ["vectorized", "serial"]
        assert stored[0]["error"] == "RuntimeError: wave exploded"

        verdict = runner.check(rows)
        assert verdict["ok"] is False
        assert verdict["non_identical"] == 1
        assert verdict["ratio"] is None and verdict["gate"]["value"] is None
        no_gate = GridRunner(ExperimentGrid.from_dict(tiny_spec(gate=None)), bench_path)
        assert no_gate.check(rows)["ok"] is False

    def test_run_without_append_leaves_file_untouched(self, bench_path):
        grid = ExperimentGrid.from_dict(
            tiny_spec(backends=["vectorized"], gate=None)
        )
        before = bench_path.read_text()
        rows = GridRunner(grid, bench_path).run(append=False)
        assert len(rows) == 1
        assert bench_path.read_text() == before

    def test_recorder_instance_accepted(self, bench_path):
        recorder = BenchRecorder(bench_path)
        grid = ExperimentGrid.from_dict(tiny_spec(backends=["serial"], gate=None))
        runner = GridRunner(grid, recorder)
        assert runner.recorder is recorder

    def test_section_scoped_floor(self, bench_path):
        recorder = BenchRecorder(bench_path)
        assert recorder.regression_floor() is None  # nothing at the root
        assert recorder.regression_floor(section="grid") == pytest.approx(0.01)
        verdict = recorder.check_ratio(0.005, section="grid")
        assert verdict["ok"] is False
        assert recorder.check_ratio(0.5, section="grid")["ok"] is True
