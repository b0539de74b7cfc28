"""Tests for benchmark runs and the table/figure drivers (reduced scale)."""

import numpy as np
import pytest

from repro.benchmarks import BitCodeBenchmark, GHZBenchmark, VanillaQAOABenchmark
from repro.devices import get_device
from repro.exceptions import DeviceError
from repro.execution import ExecutionEngine
from repro.experiments import (
    ALL_REGRESSION_FEATURES,
    PAPER_TABLE1,
    figure1_benchmarks,
    format_heatmap,
    format_table,
    render_figure1,
    render_table2,
    reproduce_figure1,
    reproduce_figure2,
    reproduce_figure3,
    reproduce_figure4,
    reproduce_table2,
)
from repro.experiments.figure2 import render_figure2
from repro.experiments.figure4 import render_figure4


class TestRunner:
    def test_ghz_run_produces_scores_and_metadata(self):
        with ExecutionEngine(
            get_device("IBM-Casablanca-7Q"), backend="trajectory", trajectories=20
        ) as engine:
            run = engine.run(GHZBenchmark(3), shots=120, repetitions=2)
        assert len(run.scores) == 2
        assert 0.0 <= run.mean_score <= 1.0
        assert run.std_score >= 0.0
        assert run.features["critical_depth"] == pytest.approx(1.0)
        assert run.typical["num_qubits"] == 3
        record = run.record()
        assert record["device"] == "IBM-Casablanca-7Q"
        assert "entanglement_ratio" in record

    def test_too_large_benchmark_raises(self):
        with ExecutionEngine(get_device("AQT-4Q"), backend="trajectory") as engine:
            with pytest.raises(DeviceError):
                engine.run(GHZBenchmark(5), shots=10)

    def test_noiseless_run_scores_near_one(self):
        with ExecutionEngine(get_device("IonQ-11Q"), backend="statevector") as engine:
            run = engine.run(GHZBenchmark(3), shots=400, repetitions=1)
        assert run.mean_score > 0.95

    def test_noise_lowers_score_for_error_correction(self):
        device = get_device("IBM-Guadalupe-16Q")
        with ExecutionEngine(device, backend="trajectory", trajectories=30) as engine:
            noisy = engine.run(BitCodeBenchmark(3, 2), shots=120, repetitions=1)
        with ExecutionEngine(device, backend="statevector") as engine:
            ideal = engine.run(BitCodeBenchmark(3, 2), shots=120, repetitions=1)
        assert noisy.mean_score < ideal.mean_score


class TestTables:
    def test_table2_contains_all_devices(self):
        rows = reproduce_table2()
        assert len(rows) == 9
        assert any(row["machine"] == "IonQ-11Q" for row in rows)
        rendered = render_table2()
        assert "IBM-Montreal-27Q" in rendered

    def test_paper_table1_constants(self):
        assert PAPER_TABLE1["SupermarQ"][0] == pytest.approx(9.0e-3)
        assert PAPER_TABLE1["PPL+2020"][1] == 9

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_heatmap(self):
        text = format_heatmap({"dev": {"f": 0.5}}, ["f"])
        assert "0.50" in text


class TestFigureDrivers:
    def test_figure1_rows(self):
        rows = reproduce_figure1()
        assert len(rows) == 8
        assert len(figure1_benchmarks()) == 8
        assert "ghz" in render_figure1()

    @pytest.fixture(scope="class")
    def small_runs(self):
        return reproduce_figure2(
            devices=["IBM-Casablanca-7Q", "IonQ-11Q"],
            small=True,
            shots=60,
            repetitions=1,
            trajectories=12,
            families=["ghz", "bit_code", "hamiltonian_simulation", "vanilla_qaoa"],
        )

    def test_figure2_reduced_sweep(self, small_runs):
        assert len(small_runs) > 0
        devices = {run.device for run in small_runs}
        assert devices == {"IBM-Casablanca-7Q", "IonQ-11Q"}
        assert all(0.0 <= run.mean_score <= 1.0 for run in small_runs)
        assert "score" in render_figure2(small_runs)

    def test_figure3_heatmap_from_runs(self, small_runs):
        matrix = reproduce_figure3(small_runs)
        assert set(matrix) == {"IBM-Casablanca-7Q", "IonQ-11Q"}
        for row in matrix.values():
            for feature in ALL_REGRESSION_FEATURES:
                assert 0.0 <= row[feature] <= 1.0

    def test_figure3_excluding_error_correction(self, small_runs):
        matrix = reproduce_figure3(small_runs, include_error_correction=False)
        assert set(matrix) == {"IBM-Casablanca-7Q", "IonQ-11Q"}

    def test_figure4_regression(self, small_runs):
        result = reproduce_figure4(small_runs, device="IBM-Casablanca-7Q")
        assert 0.0 <= result.fit_with_ec.r_squared <= 1.0
        assert 0.0 <= result.fit_without_ec.r_squared <= 1.0
        assert "R^2" in render_figure4(result)

    def test_figure4_unknown_device_rejected(self, small_runs):
        with pytest.raises(ValueError):
            reproduce_figure4(small_runs, device="No-Such-Device")
