"""End-to-end tests of the command-line interface and config ingestion."""

import hashlib
import json

import pytest

from entropy_roofline import cli
from entropy_roofline.cli import SEED_ENV_VAR, main, parse_config
from entropy_roofline.errors import ConfigError
from entropy_roofline.workload import load_trace


def run_cli(*argv):
    return main(list(argv))


def data_rows(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# entropy-roofline v0.1 schema=")
    return lines[1], lines[2:]


class TestConfigDocument:
    def test_defaults(self):
        doc = parse_config({})
        assert doc.arch.pi == 1e13
        assert doc.backend.kind == "von_neumann"
        assert doc.mode == "serialized"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"bogus": 1})
        assert info.value.path == "bogus"

    def test_unknown_nested_key_has_dotted_path(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"backend": {"rng_ratee": 1e9}})
        assert info.value.path == "backend.rng_ratee"

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"arch": {"pi": -1.0}})
        assert info.value.path == "arch"
        with pytest.raises(ConfigError):
            parse_config({"nonideality": {"rho": 1.0}})
        with pytest.raises(ConfigError):
            parse_config({"mode": "warp"})

    def test_shaping_attached_to_von_neumann(self):
        doc = parse_config({"shaping": {"method": "inverse_cdf_table", "cost": 3}})
        assert doc.backend.shaping_ops_per_sample == 3

    @pytest.mark.parametrize("section, payload", [
        ("arch", {"pi": "fast"}),
        ("arch", {"bytes_per_element": None}),
        ("shaping", {"n_entries": "257"}),
        ("backend", {"kind": "decoupled_in_memory", "parallelism": "4"}),
        ("backend", {"rng_rate": [1e9]}),
        ("nonideality", {"rho": "0.1"}),
        ("nonideality", {"bias": "0.1"}),
        ("backend", {"kind": "decoupled_in_memory", "parallelism": 2.5}),
        ("backend", {"latency_cycles": 1.5}),
        ("arch", {"bytes_per_element": 2.5}),
        ("backend", {"read_energy_pj": True}),
        ("arch", {"pi": True}),
        ("backend", {"rng_rate": 1e999}),  # json writes Infinity, which json reads as inf
        ("seed", True),
    ])
    def test_wrong_typed_value_names_its_section(self, section, payload, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config({section: payload})
        assert info.value.path == section
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: payload}))
        assert run_cli("simulate", "--config", str(cfg)) == 3

    def test_full_document(self):
        doc = parse_config({
            "arch": {"pi": 1e12, "beta_data": 1e10, "beta_rand": 1e8},
            "backend": {"kind": "decoupled_in_memory", "parallelism": 16},
            "shaping": {"method": "box_muller"},
            "nonideality": {"bias": 0.05},
            "seed": 99,
            "mode": "overlapped",
        })
        assert doc.backend.parallelism == 16
        assert doc.seed == 99


class TestRoofline:
    def test_grid_size(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli("roofline", "--alpha", "0,0.01,1", "--ai-min", "0.1",
                       "--ai-max", "1000", "--points", "50", "--out", str(out))
        assert code == 0
        header, rows = data_rows(out.read_text())
        assert header == "alpha,ai,beta_eff,phi,regime"
        assert len(rows) == 150

    def test_compression_row(self, tmp_path):
        # gap 1e4 at alpha 1%: effective bandwidth collapses ~101x
        out = tmp_path / "r.csv"
        run_cli("roofline", "--alpha", "0.01", "--beta-data", "10000",
                "--beta-rand", "1", "--pi", "1e9", "--points", "2",
                "--ai-min", "1", "--ai-max", "10", "--out", str(out))
        _, rows = data_rows(out.read_text())
        beta_eff = float(rows[0].split(",")[2])
        assert beta_eff == pytest.approx(99.01970492127933, rel=1e-12)
        assert 10_000.0 / beta_eff == pytest.approx(100.99, rel=1e-9)

    def test_alpha_out_of_bounds_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("roofline", "--alpha", "1.5")
        assert info.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_bad_range_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("roofline", "--ai-min", "10", "--ai-max", "1")
        assert info.value.code == 2


class TestSimulate:
    def test_bnn_default_is_entropy_bound(self, tmp_path):
        out = tmp_path / "res.json"
        assert run_cli("simulate", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["workload"] == "bnn_128x128_b1"
        assert doc["result"]["regime_observed"] == "EntropyBound"

    def test_conv_default_is_compute_bound(self, tmp_path):
        out = tmp_path / "res.json"
        run_cli("simulate", "--workload", "conv", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["result"]["regime_observed"] == "ComputeBound"

    def test_conv_stochastic_leaves_compute_bound(self, tmp_path):
        out = tmp_path / "res.json"
        run_cli("simulate", "--workload", "conv-stoch", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["result"]["regime_observed"] != "ComputeBound"

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("simulate", "--workload", "mc", "--out", str(a))
        run_cli("simulate", "--workload", "mc", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_trace_input(self, tmp_path):
        trace = tmp_path / "t.csv"
        run_cli("gen-trace", "--workload", "bnn", "--shape", "16,8,2",
                "--out", str(trace))
        out = tmp_path / "res.json"
        assert run_cli("simulate", "--trace", str(trace), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["cost"]["total_samples"] == 16 * 8 * 2

    @pytest.mark.parametrize("flag, value", [("--shape", "1,2"), ("--workload", "bnn")])
    def test_generator_flag_with_trace_exits_2(self, flag, value, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli("gen-trace", "--workload", "mc", "--shape", "20,3", "--out", str(trace)) == 0
        with pytest.raises(SystemExit) as info:
            run_cli("simulate", "--trace", str(trace), flag, value)
        assert info.value.code == 2
        assert f"{flag}:" in capsys.readouterr().err

    def test_trace_with_seed_and_backend_bytes_pinned(self, tmp_path, monkeypatch):
        # the trace-mc benchmark workload runs this command; the workload name
        # is the trace path, so it runs from the trace's directory
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-trace", "--workload", "mc", "--shape", "20,3", "--out", "t.csv") == 0
        assert run_cli("simulate", "--trace", "t.csv", "--seed", "5",
                       "--backend", "decoupled_near_memory", "--out", "res.json") == 0
        digest = hashlib.sha256((tmp_path / "res.json").read_bytes()).hexdigest()
        assert digest == "7825e9c16861830e18b3f2b21181e8c428c5430f1e3e7e0bb2651b50cac733c4"

    def test_missing_config_exits_4(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "nope.json")) == 4

    def test_invalid_config_exits_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"backend": {"rng_ratee": 1}}')
        assert run_cli("simulate", "--config", str(cfg)) == 3

    def test_backend_override(self, tmp_path):
        out = tmp_path / "res.json"
        run_cli("simulate", "--workload", "mc", "--backend", "coupled_pcim",
                "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["backend"] == "coupled_pcim"


class TestFidelity:
    def test_ideal_pipeline_passes(self, tmp_path):
        out = tmp_path / "f.json"
        assert run_cli("fidelity", "--samples", "100000", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["ks_pass"] is True

    def test_bias_config_shifts_mean(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nonideality": {"bias": 0.1}}))
        out = tmp_path / "f.json"
        run_cli("fidelity", "--config", str(cfg), "--samples", "100000",
                "--out", str(out))
        doc = json.loads(out.read_text())
        assert abs(doc["report"]["mean"] - 0.1) < 0.013
        assert doc["report"]["ks_pass"] is False

    def test_sample_bounds_exit_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("fidelity", "--samples", "10")
        assert info.value.code == 2

    def test_uniform_target(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"shaping": {"method": "bernoulli_threshold"}}))
        out = tmp_path / "f.json"
        assert run_cli("fidelity", "--config", str(cfg), "--samples", "10000",
                       "--target", "uniform", "--out", str(out)) == 0


class TestGenTrace:
    def test_bnn_aggregate(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("gen-trace", "--workload", "bnn", "--out", str(out)) == 0
        _, agg = load_trace(str(out))
        assert agg.stoch_accesses == 16384

    def test_mc_record_shape(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("gen-trace", "--workload", "mc", "--shape", "10,4", "--out", str(out))
        records, _ = load_trace(str(out))
        assert sum(1 for r in records if r.op == "sample") == 10
        assert sum(1 for r in records if r.op == "write") == 1

    def test_bad_shape_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("gen-trace", "--workload", "bnn", "--shape", "1,2")
        assert info.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            run_cli("gen-trace", "--workload", "mc", "--shape", "0,4")
        assert info.value.code == 2
        assert "--shape:" in capsys.readouterr().err

    @pytest.mark.parametrize("workload, shape", [
        ("bnn", "4,3,2"), ("conv", "2,2,3,4,4,1"), ("conv-stoch", "2,2,3,4,4,2"), ("mc", "7,3"),
    ])
    def test_stdout_equals_out_file(self, workload, shape, tmp_path, capsysbinary):
        out = tmp_path / "t.csv"
        assert run_cli("gen-trace", "--workload", workload, "--shape", shape,
                       "--out", str(out)) == 0
        capsysbinary.readouterr()
        assert run_cli("gen-trace", "--workload", workload, "--shape", shape) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


class TestSweep:
    def grid(self, tmp_path, payload):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_alpha_grid_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        grid = self.grid(tmp_path, {"alpha": [0.0, 0.01, 0.1, 0.5, 1.0]})
        assert run_cli("sweep", "--grid", grid, "--out", str(out)) == 0
        _, rows = data_rows(out.read_text())
        assert len(rows) == 5

    def test_jobs_byte_identical(self, tmp_path):
        grid = self.grid(tmp_path, {
            "alpha": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            "backend": ["von_neumann", "coupled_pcim", "decoupled_in_memory"],
            "mode": ["serialized", "overlapped"],
        })
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("sweep", "--grid", grid, "--jobs", "1", "--out", str(a))
        run_cli("sweep", "--grid", grid, "--jobs", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_backend_sweep_coupled_rate(self, tmp_path):
        grid = self.grid(tmp_path, {"backend": ["von_neumann", "coupled_pcim"]})
        out = tmp_path / "s.csv"
        run_cli("sweep", "--grid", grid, "--workload", "mc", "--out", str(out))
        header, rows = data_rows(out.read_text())
        cols = header.split(",")
        coupled = next(r for r in rows if "coupled_pcim" in r).split(",")
        assert float(coupled[cols.index("beta_rand_eff")]) == 2.5e10

    def test_grid_validation_exits_3(self, tmp_path):
        grid = self.grid(tmp_path, {"alpha": []})
        assert run_cli("sweep", "--grid", grid) == 3
        grid = self.grid(tmp_path, {"voltage": [1]})
        assert run_cli("sweep", "--grid", grid) == 3

    def test_missing_grid_exits_4(self, tmp_path):
        assert run_cli("sweep", "--grid", str(tmp_path / "nope.json")) == 4

    def test_jobs_zero_exits_2(self, tmp_path, capsys):
        grid = self.grid(tmp_path, {"alpha": [0.5]})
        with pytest.raises(SystemExit) as info:
            run_cli("sweep", "--grid", grid, "--jobs", "0")
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_shape_without_workload_exits_2(self, tmp_path, capsys):
        grid = self.grid(tmp_path, {"alpha": [0.5]})
        with pytest.raises(SystemExit) as info:
            run_cli("sweep", "--grid", grid, "--shape", "10,4")
        assert info.value.code == 2
        assert "--shape:" in capsys.readouterr().err

    def test_workload_shape_error_exits_2(self, tmp_path, capsys):
        grid = self.grid(tmp_path, {"alpha": [0.5]})
        with pytest.raises(SystemExit) as info:
            run_cli("sweep", "--grid", grid, "--workload", "bnn", "--shape", "0,4,1")
        assert info.value.code == 2
        assert "--shape:" in capsys.readouterr().err


class TestSeedEnvVar:
    def test_env_seed_applies(self, tmp_path, monkeypatch):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        run_cli("simulate", "--out", str(out_a))
        assert json.loads(out_a.read_text())["seed"] == 77
        # flag wins over the environment
        run_cli("simulate", "--seed", "5", "--out", str(out_b))
        assert json.loads(out_b.read_text())["seed"] == 5

    def test_bad_env_seed_exits_3(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert run_cli("simulate") == 3

    def test_fidelity_seed_changes_samples(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("fidelity", "--samples", "10000", "--seed", "1", "--out", str(a))
        run_cli("fidelity", "--samples", "10000", "--seed", "2", "--out", str(b))
        ra = json.loads(a.read_text())["report"]["ks_statistic"]
        rb = json.loads(b.read_text())["report"]["ks_statistic"]
        assert ra != rb


class TestPatchableNames:
    """Names a caller may swap in ``cli``'s namespace (the benchmark's traced
    run does) must be looked up there on every call, once per command."""

    @pytest.mark.parametrize("name, command", [
        ("mc_trace", ["gen-trace", "--workload", "mc", "--shape", "10,4"]),
        ("save_trace", ["gen-trace", "--workload", "mc", "--shape", "10,4"]),
        ("load_trace", ["simulate", "--trace", "{trace}"]),
        ("run_sim", ["simulate", "--workload", "mc"]),
        ("run_sweep", ["sweep", "--grid", "{grid}"]),
        ("roofline_curve", ["roofline", "--alpha", "0.5", "--points", "4"]),
    ])
    def test_called_once_through_module_globals(self, name, command, tmp_path, monkeypatch):
        trace, grid = tmp_path / "t.csv", tmp_path / "g.json"
        assert run_cli("gen-trace", "--workload", "mc", "--shape", "10,4", "--out", str(trace)) == 0
        grid.write_text(json.dumps({"alpha": [0.0, 1.0]}))
        calls = []
        original = getattr(cli, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        argv = [arg.format(trace=trace, grid=grid) for arg in command]
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 0
        assert calls == [name]
