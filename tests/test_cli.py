"""CLI smoke tests (every subcommand end to end)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestCli:
    def test_info(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        assert "sds" in out and "edison" in out

    def test_sort_success(self, capsys):
        code, out = run_cli(
            capsys, "sort", "--algorithm", "sds", "--workload", "zipf",
            "--alpha", "1.4", "--p", "8", "--n", "500",
            "--no-node-merge", "--sync",
        )
        assert code == 0
        assert "ok (validated)" in out
        assert "RDFA" in out

    def test_sort_oom_exit_code(self, capsys):
        code, out = run_cli(
            capsys, "sort", "--algorithm", "hyksort", "--workload", "zipf",
            "--alpha", "2.1", "--p", "16", "--n", "800",
        )
        assert code == 1
        assert "FAILED (OOM)" in out

    def test_sort_stable(self, capsys):
        code, out = run_cli(
            capsys, "sort", "--algorithm", "sds-stable", "--p", "4",
            "--n", "300", "--no-node-merge",
        )
        assert code == 0

    def test_sort_explain(self, capsys):
        code, out = run_cli(
            capsys, "sort", "--algorithm", "sds", "--p", "8", "--n", "400",
            "--no-node-merge", "--explain",
        )
        assert code == 0
        assert "decisions :" in out
        assert "exchange" in out and "overlapped" in out
        assert "tau_o=" in out
        assert "node_merge" in out and "local_ordering" in out

    def test_sort_explain_stable_names_sync(self, capsys):
        code, out = run_cli(
            capsys, "sort", "--algorithm", "sds-stable", "--p", "4",
            "--n", "300", "--no-node-merge", "--explain",
        )
        assert code == 0
        assert "-> sync" in out and "-> stable" in out

    def test_info_lists_spec_summaries(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        assert "skew-aware adaptive samplesort" in out
        assert "[stable]" in out

    def test_scaling(self, capsys):
        # graysort has i.i.d. uniform key values: same count-space model
        for workload in ("uniform", "graysort"):
            code, out = run_cli(
                capsys, "scaling", "--workload", workload,
                "--algorithms", "sds,hyksort", "--p", "512,131072",
            )
            assert code == 0
            assert "128K" in out
            assert "TB/min" in out

    def test_scaling_zipf_shows_oom(self, capsys):
        code, out = run_cli(
            capsys, "scaling", "--workload", "zipf", "--alpha", "0.7",
            "--algorithms", "hyksort", "--p", "512",
        )
        assert code == 0
        assert "OOM" in out

    def test_rdfa(self, capsys):
        code, out = run_cli(
            capsys, "rdfa", "--workload", "zipf", "--alpha", "0.7",
            "--p", "512", "--n", "1000000",
        )
        assert code == 0
        assert "inf(OOM)" in out   # hyksort column

    def test_tune(self, capsys):
        code, out = run_cli(capsys, "tune", "--machine", "edison")
        assert code == 0
        assert "tau_m" in out and "tau_s" in out

    def test_unknown_machine(self, capsys):
        with pytest.raises(KeyError):
            run_cli(capsys, "tune", "--machine", "frontier")

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv, message", [
        (["sort", "--seed", "-1"], "--seed: must be >= 0, got -1"),
        (["sort", "--seed", "1.5"], "--seed: '1.5' is not an integer"),
        (["sort", "--fault-seed", "-2"], "--fault-seed: must be >= 0"),
        (["dataset", "--seed", "-1"], "--seed: must be >= 0, got -1"),
        (["submit", "--seed", "x"], "--seed: 'x' is not an integer"),
        (["submit", "--fault-seed", "-1"], "--fault-seed: must be >= 0"),
        (["chaos", "--seeds=-1..2"], "--seeds: seeds must be >= 0"),
        (["chaos", "--seeds", "0,-3"], "--seeds: seeds must be >= 0"),
    ])
    def test_malformed_seed_is_a_usage_error(self, capsys, argv, message):
        # exit 2 with argparse's one-line error, not a numpy traceback
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err


class TestCliTrace:
    def test_sort_trace_writes_valid_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        code, out = run_cli(
            capsys, "sort", "--p", "8", "--n", "300", "--trace", str(path),
        )
        assert code == 0
        assert "trace written to" in out
        assert "critical" in out          # phase flame rendered
        assert "bytes sent" in out        # comm heat rendered
        obj = json.loads(path.read_text())
        assert obj["sdssort"]["p"] == 8
        assert any(e.get("ph") == "X" for e in obj["traceEvents"])

    def test_sort_json_schema(self, capsys):
        import json

        code, out = run_cli(
            capsys, "sort", "--p", "8", "--n", "300", "--json",
            "--backend", "thread",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "sdssort.sort/v5"
        assert doc["ok"] is True
        for key in ("algorithm", "workload", "p", "n_per_rank", "elapsed",
                    "throughput_tb_min", "rdfa", "phases", "decisions",
                    "faults", "trace", "engine", "timing"):
            assert key in doc, key
        # wall-latency split is always present; zero for direct runs
        assert doc["timing"] == {"queue_ms": 0.0, "run_ms": 0.0}
        assert doc["engine"]["resolved_backend"] == {
            "requested": "thread", "resolved": "thread",
            "reason": "explicitly requested",
            "eligible": ["thread", "flat"]}
        assert doc["engine"]["eligible_backends"] == ["thread", "flat"]
        assert doc["elapsed"] > 0
        assert doc["decisions"] and "choice" in doc["decisions"][0]
        assert doc["trace"]["spans"] > 0
        assert doc["trace"]["reconciliation"]["max_cost_gap"] < 1e-9

    def test_sort_json_default_backend_is_auto(self, capsys):
        import json

        code, out = run_cli(
            capsys, "sort", "--p", "8", "--n", "300", "--json",
        )
        assert code == 0
        engine = json.loads(out)["engine"]
        assert engine["resolved_backend"] == {
            "requested": "auto", "resolved": "flat",
            "reason": engine["resolved_backend"]["reason"],
            "eligible": ["thread", "flat"]}
        assert (engine["backend"], engine["workers"],
                engine["pool_threads"]) == ("flat", 0, 0)

    def test_sort_backend_auto_routes_psrs_to_flat(self, capsys):
        import json

        code, out = run_cli(
            capsys, "sort", "--algorithm", "psrs", "--p", "8", "--n", "200",
            "--backend", "auto", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["engine"]["backend"] == "flat"
        resolved = doc["engine"]["resolved_backend"]
        assert resolved["requested"] == "auto"
        assert resolved["resolved"] == "flat"
        assert doc["engine"]["eligible_backends"] == ["thread", "flat"]

    def test_sort_json_failure(self, capsys):
        import json

        code, out = run_cli(
            capsys, "sort", "--algorithm", "hyksort", "--workload", "zipf",
            "--alpha", "2.1", "--p", "16", "--n", "800", "--json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and doc["oom"] is True
        assert doc["elapsed"] is None

    def test_sort_json_faults(self, capsys):
        import json

        code, out = run_cli(
            capsys, "sort", "--p", "8", "--n", "300",
            "--fault-spec", "straggler", "--fault-seed", "2", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["faults"]["faults.straggler"] == 2.0
        assert doc["trace"]["fault_markers"] == 2

    def test_trace_summarize_and_diff(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "sort", "--p", "8", "--n", "300",
                "--trace", str(a))
        run_cli(capsys, "sort", "--p", "8", "--n", "300", "--sync",
                "--trace", str(b))
        code, out = run_cli(capsys, "trace", str(a))
        assert code == 0
        assert "phases" in out and "cost split" in out
        code, out = run_cli(capsys, "trace", str(a), str(b))
        assert code == 0
        assert "sim time:" in out and "delta" in out

    def test_trace_rejects_three_files(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(capsys, "trace", "a", "b", "c")


class TestCliViz:
    def test_scaling_plot(self, capsys):
        code, out = run_cli(
            capsys, "scaling", "--workload", "uniform",
            "--algorithms", "sds", "--p", "512,8192", "--plot",
        )
        assert code == 0
        assert "*=sds" in out

    def test_breakdown(self, capsys):
        code, out = run_cli(
            capsys, "breakdown", "--workload", "ptf", "--p", "16",
            "--n", "400",
        )
        assert code == 0
        assert "E=exchange" in out
        assert "hyksort" in out


class TestCliDataset:
    def test_create_list_delete(self, capsys, tmp_path):
        root = str(tmp_path / "ds")
        code, out = run_cli(capsys, "dataset", "create", "--root", root,
                            "--name", "d1", "--p", "2", "--n", "20")
        assert code == 0 and "created d1" in out
        code, out = run_cli(capsys, "dataset", "list", "--root", root)
        assert code == 0 and "d1" in out and "p=2" in out
        code, out = run_cli(capsys, "dataset", "delete", "--root", root,
                            "--name", "d1")
        assert code == 0
        code, out = run_cli(capsys, "dataset", "list", "--root", root)
        assert "(no datasets)" in out

    def test_create_requires_name(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(capsys, "dataset", "create", "--root",
                    str(tmp_path / "x"))


class TestCliFigures:
    @pytest.mark.parametrize("name", ["fig5a", "fig5b", "fig5c"])
    def test_fig5_charts(self, capsys, name):
        code, out = run_cli(capsys, "figure", name)
        assert code == 0
        assert "crossover" in out

    def test_fig7(self, capsys):
        code, out = run_cli(capsys, "figure", "fig7")
        assert code == 0
        assert "*=sds" in out

    def test_fig8_notes_oom(self, capsys):
        code, out = run_cli(capsys, "figure", "fig8")
        assert code == 0
        assert "OOM" in out

    def test_table3(self, capsys):
        code, out = run_cli(capsys, "figure", "table3")
        assert code == 0
        assert "inf(OOM)" in out


class TestCliModels:
    def test_rdfa_ptf_model(self, capsys):
        code, out = run_cli(capsys, "rdfa", "--workload", "ptf",
                            "--p", "512", "--n", "1000000")
        assert code == 0

    def test_scaling_cosmology_model(self, capsys):
        code, out = run_cli(capsys, "scaling", "--workload", "cosmology",
                            "--algorithms", "sds", "--p", "512")
        assert code == 0

    def test_unknown_model_workload(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "scaling", "--workload", "staggered",
                    "--algorithms", "sds", "--p", "512")
