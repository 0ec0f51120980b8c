"""Tests for the evaluation harness: comparisons, drivers, reporting, CLI."""

import json

import pytest

from repro.eval.cli import main as cli_main
from repro.eval.comparison import (
    arithmetic_mean,
    geometric_mean,
    normalize_to,
    normalized_instructions,
    speedups_over,
)
from repro.eval.experiments import (
    experiment_area,
    experiment_fig3,
    experiment_fig9,
    experiment_fig10_11,
    experiment_fig12_13,
    experiment_fig14_15,
    experiment_fig16_17,
    experiment_fig18,
    experiment_fig19,
    experiment_fig20,
    experiment_scale,
    experiment_table2,
    experiment_table3,
    experiment_table4,
    experiment_table5,
)
from repro.eval.figures import ALIASES, EXPERIMENTS, get_experiment, list_experiments
from repro.eval.reporting import format_table, render_result
from repro.sim.config import SimConfig

QUICK = ("M5", "M8")


class TestComparisonHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_normalize_to(self):
        assert normalize_to(2.0, {"a": 4.0}) == {"a": 2.0}
        assert normalize_to(0.0, {"a": 4.0})["a"] == float("inf")

    def test_speedups_and_instruction_ratios(self, kernel_session, medium_coo, smash_config):
        sim = SimConfig.scaled(16)
        run = kernel_session.run_kernel
        baseline = run("spmv", "taco_csr", medium_coo, smash=smash_config, sim=sim)
        candidate = run("spmv", "smash_hw", medium_coo, smash=smash_config, sim=sim)
        speeds = speedups_over(baseline.report, {"smash_hw": candidate.report})
        ratios = normalized_instructions(baseline.report, {"smash_hw": candidate.report})
        assert speeds["smash_hw"] > 0
        assert 0 < ratios["smash_hw"] < 2


class TestTables:
    def test_table2_rows(self):
        rows = experiment_table2()["rows"]
        assert "CPU" in rows and "DRAM" in rows

    def test_table3_lists_all_matrices(self):
        result = experiment_table3(dim=64)
        assert len(result["rows"]) == 15
        first = result["rows"][0]
        assert first["id"] == "M1" and first["name"] == "descriptor_xingo6u"

    def test_table4_lists_all_graphs(self):
        result = experiment_table4(n_vertices=48)
        assert len(result["rows"]) == 4
        assert result["rows"][0]["name"] == "com-Youtube"

    def test_table5_rows(self):
        rows = experiment_table5()["rows"]
        assert "Xeon" in rows["CPU"]


class TestFigureDrivers:
    def test_fig3_ideal_is_faster_with_fewer_instructions(self):
        result = experiment_fig3(keys=QUICK, spmv_dim=64, spmm_dim=32)
        for kernel in ("spadd", "spmv", "spmm"):
            metrics = result["results"][kernel]
            assert metrics["ideal_speedup"] > 1.0
            assert metrics["ideal_normalized_instructions"] < 1.0

    def test_fig9_all_schemes_reported(self):
        result = experiment_fig9(keys=QUICK, spmv_dim=64, spmm_dim=32)
        assert set(result["results"]["spmv"]) == {"taco_csr", "taco_bcsr", "mkl_csr", "smash_sw"}
        assert result["results"]["spmv"]["mkl_csr"] > 1.0

    def test_fig10_11_structure_and_smash_wins(self):
        result = experiment_fig10_11(keys=QUICK, dim=64)
        assert set(result["per_matrix"]) == {"M5.16.4.2", "M8.16.4.2"}
        averages = result["average"]
        assert averages["speedup"]["smash_hw"] > 1.0
        assert averages["normalized_instructions"]["smash_hw"] < 1.0
        # The BMU removes the software bitmap-scanning instructions.
        assert (
            averages["normalized_instructions"]["smash_hw"]
            < averages["normalized_instructions"]["smash_sw"]
        )

    def test_fig12_13_smash_wins_spmm(self):
        result = experiment_fig12_13(keys=QUICK, dim=32)
        assert result["average"]["speedup"]["smash_hw"] > 1.0

    def test_fig14_15_reports_all_ratios(self):
        result = experiment_fig14_15(keys=QUICK, kernel="spmv", dim=64)
        for entry in result["per_matrix"].values():
            assert set(entry) == {"B0-2:1", "B0-4:1", "B0-8:1"}
            assert entry["B0-2:1"] == pytest.approx(1.0)

    def test_fig14_15_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            experiment_fig14_15(kernel="spgemm")

    def test_fig16_17_speedup_rises_with_locality(self):
        result = experiment_fig16_17(keys=("M8",), kernel="spmv", dim=96,
                                     localities=(12.5, 50, 100))
        series = next(iter(result["per_matrix"].values()))
        assert series["12.5%"] == pytest.approx(1.0)
        assert series["100%"] > series["12.5%"]

    def test_fig18_reports_both_applications(self):
        result = experiment_fig18(keys=("G3",), n_vertices=48, pagerank_iterations=2, bc_sources=1)
        assert set(result["per_graph"]["G3"]) == {"pagerank", "bc"}
        assert result["average"]["pagerank"]["speedup"] > 0

    def test_fig19_sparsest_matrix_favours_csr(self):
        result = experiment_fig19(keys=("M1", "M13"), dim=96)
        per_matrix = result["per_matrix"]
        assert per_matrix["M1"]["csr"] > per_matrix["M1"]["smash"]
        ratio_sparse = per_matrix["M1"]["smash"] / per_matrix["M1"]["csr"]
        ratio_dense = per_matrix["M13"]["smash"] / per_matrix["M13"]["csr"]
        assert ratio_dense > ratio_sparse

    def test_fig20_breakdown_sums_to_100(self):
        result = experiment_fig20(spmv_dim=64, spmm_dim=32, n_vertices=64, pagerank_iterations=8)
        for parts in result["breakdown"].values():
            assert sum(parts.values()) == pytest.approx(100.0)
        spmv = result["breakdown"]["spmv"]
        pagerank = result["breakdown"]["pagerank"]
        conversion_share = lambda p: p["csr_to_smash_percent"] + p["smash_to_csr_percent"]
        # Figure 20: conversion dominates short-running SpMV but is negligible
        # for the long-running iterative PageRank.
        assert conversion_share(spmv) > conversion_share(pagerank)

    def test_scale_sweep_reports_memory_budget(self, monkeypatch):
        from repro.sim.trace import CHUNK_ENV_VAR

        monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
        result = experiment_scale(keys=("M8",), dims=(64, 128))
        assert result["experiment"] == "scale"
        assert result["memory_budget_mb"] > 0
        points = result["per_point"]
        assert set(points) == {"M8@64", "M8@128"}
        for point in points.values():
            assert point["trace_accesses"] == 2 * point["rows"] + 3 * point["nnz"]
            assert point["speedup"]["taco_csr"] == 1.0
            assert point["cycles"]["taco_csr"] > 0
        # The default replay is chunked, so the sweep itself never needs the
        # monolithic footprint it reports.
        assert result["trace_chunk_accesses"] is not None

    def test_scale_sweep_needs_baseline(self):
        with pytest.raises(ValueError):
            experiment_scale(schemes=("smash_hw",), dims=(64,))

    def test_area_overhead_matches_section76(self):
        result = experiment_area()
        assert result["sram_bytes"] == 3072
        assert result["overhead_percent"] < 0.1


class TestRegistryAndReporting:
    def test_every_experiment_registered(self):
        assert len(EXPERIMENTS) >= 16
        assert get_experiment("figure11").identifier == "figure10"
        assert get_experiment("10").identifier == "figure10"

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("figure99")

    def test_aliases_resolve(self):
        for alias in ALIASES:
            assert get_experiment(alias) is not None

    def test_list_experiments_order(self):
        identifiers = [e.identifier for e in list_experiments()]
        assert identifiers[0] == "figure3"

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]])
        assert "a" in text and "2.500" in text

    def test_render_result_handles_every_quick_experiment(self):
        for experiment in list_experiments():
            result = experiment.driver(**experiment.quick_kwargs)
            text = render_result(result)
            assert experiment.description.split()[0].lower() in text.lower() or text


class TestCLI:
    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure10" in output and "table3" in output

    def test_run_quick_experiment(self, capsys):
        assert cli_main(["run", "area"]) == 0
        assert "overhead_percent" in capsys.readouterr().out

    def test_run_json_output(self, capsys):
        assert cli_main(["run", "table5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"] == "5"

    def test_run_unknown_experiment_fails(self, capsys):
        assert cli_main(["run", "figure99"]) == 2

    def test_run_with_quick_flag(self, capsys):
        assert cli_main(["run", "figure19", "--quick"]) == 0
        assert "compression" in capsys.readouterr().out.lower()
