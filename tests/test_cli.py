"""End-to-end tests of the command-line interface and config ingestion."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entropy_roofline
from entropy_roofline import cli
from entropy_roofline.cli import SEED_ENV_VAR, main, parse_config
from entropy_roofline.errors import ConfigError
from entropy_roofline.perf_model import RegimeLabel
from entropy_roofline.workload import _WRITE_RUN, load_trace


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

    def test_fidelity_reads_the_shaping_section_on_any_backend(self, tmp_path):
        cfg, out = tmp_path / "c.json", tmp_path / "f.json"
        cfg.write_text(json.dumps({"backend": {"kind": "coupled_pcim"},
                                   "shaping": {"method": "clt_accumulate", "k": 4}}))
        assert run_cli("fidelity", "--config", str(cfg), "--samples", "1000", "--out", str(out)) == 0
        assert json.loads(out.read_text())["pipeline"] == "clt_accumulate"

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
        ("shaping", {"method": "inverse_cdf_table", "n_entries": 2.5}),
        ("shaping", {"p": True}),
        ("nonideality", {"rho": 1e999}),
        ("nonideality", {"drift": float("nan")}),  # json writes NaN, which json reads as nan
        ("arch", {"beta_rand": -1}),
        ("backend", {"sigma_min_frac": 1.5}),
        ("backend", {"gamma": True}),
        ("seed", 1.5),
    ])
    def test_wrong_typed_value_names_its_section(self, section, payload, tmp_path, capsys):
        with pytest.raises(ConfigError) as info:
            parse_config({section: payload})
        assert info.value.path == section
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: payload}))
        for command in ("simulate", "fidelity"):
            assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
            assert f"config error: {section}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_integer_rates_print_as_given(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"arch": {"pi": 10**13, "beta_data": 25 * 10**9}}))
        out = tmp_path / "r.csv"
        assert run_cli("roofline", "--alpha", "0", "--ai-min", "1", "--ai-max", "1000",
                       "--points", "2", "--config", str(config), "--out", str(out)) == 0
        _, rows = data_rows(out.read_text())
        assert rows == ["0.0,1.0,25000000000,25000000000.0,DataBound",
                        "0.0,1000.0,25000000000,10000000000000,ComputeBound"]

    def test_alpha_out_of_bounds_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("roofline", "--alpha", "1.5")
        assert info.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_bad_range_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("roofline", "--ai-min", "10", "--ai-max", "1")
        assert info.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--pi", "nan"), ("--pi", "inf"), ("--beta-data", "-1"), ("--beta-rand", "0"),
        ("--ai-min", "nan"), ("--ai-min", "0"), ("--ai-max", "inf"), ("--ai-max", "0.001"),
        ("--alpha", "0.5,nan"), ("--alpha", "-0.1"), ("--points", "1"),
        ("--alpha", "0.5,,1"), ("--alpha", "0.5,"), ("--alpha", ","),
        ("--ai-max", "1e307"),  # over the default --ai-min 0.01, the ratio overflows
    ])
    def test_rejected_flag_value_names_its_flag(self, flag, value, tmp_path, capsys):
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as info:
            run_cli("roofline", flag, value, "--out", str(out))
        assert info.value.code == 2
        assert f"error: {flag}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", " "])
    def test_empty_alpha_needs_a_value(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("roofline", "--alpha", value)
        assert info.value.code == 2
        assert "error: --alpha: needs at least one value" in capsys.readouterr().err

    def test_signed_zero_alphas_print_apart(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("roofline", "--alpha=-0.0,0", "--points", "2", "--out", str(out)) == 0
        _, rows = data_rows(out.read_text())
        assert [row.split(",")[0] for row in rows] == ["-0.0", "-0.0", "0.0", "0.0"]

    @pytest.mark.parametrize("arch", [{}, {"pi": 10**13, "beta_data": 25 * 10**9, "beta_rand": 10**9}])
    def test_alphas_together_equal_alphas_apart(self, arch, tmp_path):
        """Integer rates keep their repr on the curves (alpha 0 and 1) that
        return them, beside the float rates of the others."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"arch": arch}))
        alphas = ["0", "0.25", "1"]

        def roofline(alpha, name):
            out = tmp_path / name
            assert run_cli("roofline", "--alpha", alpha, "--ai-min", "0.5", "--ai-max", "2e4",
                           "--points", "7", "--config", str(config), "--out", str(out)) == 0
            return out.read_text().splitlines()

        together = roofline(",".join(alphas), "all.csv")
        apart = [roofline(alpha, f"{i}.csv") for i, alpha in enumerate(alphas)]
        assert together[:2] == apart[0][:2]
        assert together[2:] == [row for lines in apart for row in lines[2:]]
        if arch:
            assert together[2].split(",")[2] == "25000000000"
            assert together[-1].split(",")[2] == "1000000000"

    def test_cells_called_once_per_column(self, tmp_path, monkeypatch):
        calls = []
        original = cli._cells

        def counting(values, shape):
            calls.append(shape)
            return original(values, shape)

        monkeypatch.setattr(cli, "_cells", counting)
        assert run_cli("roofline", "--alpha", "0,0.5,1", "--points", "4",
                       "--out", str(tmp_path / "r.csv")) == 0
        assert calls == [(3, 4)] * 5


# float64 values whose reprs a per-value cache could confuse: signed zeros,
# infinities, NaNs with other sign and payload bits, subnormals
_NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8DEADBEEF0001)
_AWKWARD_FLOATS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308,
                   1.0, 0.1, 1e300] + [struct.unpack("<d", struct.pack("<Q", b))[0] for b in _NAN_BITS]


@st.composite
def _sweep_column(draw, pools):
    """A column at one of the shapes ``SweepTable`` stores (varying over
    alpha, ai, configs or all three), the row shape it is broadcast to, and
    values drawn from a small pool, so duplicates are the rule."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    axes = draw(st.sampled_from([(0,), (1,), (2,), (0, 1, 2)]))
    stored = tuple(n if axis in axes else 1 for axis, n in enumerate(shape))
    pool = draw(pools)
    values = draw(st.lists(st.sampled_from(pool), min_size=math.prod(stored), max_size=math.prod(stored)))
    return values, stored, shape


class TestCells:
    @given(_sweep_column(st.builds(lambda floats, awkward: [-0.0, 0.0] + floats + awkward,
                                   st.lists(st.floats(), max_size=3),
                                   st.lists(st.sampled_from(_AWKWARD_FLOATS), max_size=8))))
    def test_floats_format_as_their_reprs(self, column):
        values, stored, shape = column
        array = np.array(values, dtype=np.float64).reshape(stored)
        assert cli._cells(array, shape) == [repr(v) for v in np.broadcast_to(array, shape).ravel().tolist()]

    @given(_sweep_column(st.lists(st.sampled_from([
        1, 1.0, True, 0, -0.0, 0.0, 25 * 10**9, 2.5e10, math.nan,
        RegimeLabel.DATA_BOUND, RegimeLabel.COMPUTE_BOUND, "coupled_pcim", "serialized",
    ]), min_size=1, max_size=8)))
    def test_objects_format_one_by_one(self, column):
        values, stored, shape = column
        array = np.empty(len(values), dtype=object)
        array[:] = values
        array = array.reshape(stored)
        expected = [v if isinstance(v, str) else repr(v) for v in np.broadcast_to(array, shape).ravel().tolist()]
        assert cli._cells(array, shape) == expected

    def test_nan_payloads_and_signed_zeros(self):
        array = np.array(_AWKWARD_FLOATS * 3)
        assert cli._cells(array, array.shape) == [repr(v) for v in array.tolist()]
        assert cli._cells(np.array([-0.0, 0.0, -0.0]), (3,)) == ["-0.0", "0.0", "-0.0"]


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

    @pytest.mark.parametrize("text, line", [
        ("op,row,col,count\r\nread,0,0,1\r\nsample,0,0," + "7" * 140_000 + "\r\n", 3),
        ("o" * 140_000 + "\r\nread,0,0,1\r\n", 1),
    ], ids=["count", "header"])
    def test_field_longer_than_csv_limit_exits_3(self, tmp_path, capsys, text, line):
        """A field past the csv module's 131,072-character limit is a trace
        error on its line, not a traceback."""
        trace = tmp_path / "t.csv"
        trace.write_text(text, newline="")
        assert run_cli("simulate", "--trace", str(trace)) == 3
        assert f"trace error: line {line}: " in capsys.readouterr().err

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
        # is the trace file's base name, "t.csv"
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-trace", "--workload", "mc", "--shape", "20,3", "--out", "t.csv") == 0
        assert run_cli("simulate", "--trace", "t.csv", "--seed", "5",
                       "--backend", "decoupled_near_memory", "--out", "res.json") == 0
        digest = hashlib.sha256((tmp_path / "res.json").read_bytes()).hexdigest()
        assert digest == "7825e9c16861830e18b3f2b21181e8c428c5430f1e3e7e0bb2651b50cac733c4"

    def test_trace_path_spelling_does_not_change_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-trace", "--workload", "mc", "--shape", "20,3", "--out", "t.csv") == 0
        outputs = []
        for i, spelling in enumerate(["t.csv", os.path.join(".", "t.csv"), str(tmp_path / "t.csv")]):
            assert run_cli("simulate", "--trace", spelling, "--out", f"res{i}.json") == 0
            outputs.append((tmp_path / f"res{i}.json").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["workload"] == "t.csv"

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

    @pytest.mark.parametrize("command, workload, shape", [
        ("gen-trace", "bnn", "1,2"), ("gen-trace", "mc", "0,4"),
        # int() takes these; the package writes an int as ASCII digits alone
        ("simulate", "bnn", "\u0661\u0662\u0668,1_28, 2"), ("simulate", "bnn", "128,1_28,2"),
        ("gen-trace", "mc", "10, 4"), ("gen-trace", "mc", "+10,4"), ("gen-trace", "mc", "10,,4"),
    ])
    def test_bad_shape_exits_2(self, command, workload, shape, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(command, "--workload", workload, "--shape", shape)
        assert info.value.code == 2
        assert "--shape:" in capsys.readouterr().err

    @pytest.mark.parametrize("workload, shape", [
        ("bnn", "4,3,2"), ("conv", "2,2,3,4,4,1"), ("conv-stoch", "2,2,3,4,4,2"), ("mc", "7,3"),
        ("mc", f"{2 * _WRITE_RUN + 1},3"),  # a run written in three blocks
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

    def test_integer_rates_print_as_given(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"arch": {"beta_data": 25 * 10**9, "beta_rand": 10**9}}))
        out = tmp_path / "s.csv"
        grid = self.grid(tmp_path, {"alpha": [0.5], "backend": ["coupled_pcim"]})
        assert run_cli("sweep", "--grid", grid, "--config", str(config), "--out", str(out)) == 0
        header, (row,) = data_rows(out.read_text())
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["beta_rand"], cells["beta_data_eff"], cells["beta_rand_eff"]) == (
            "1000000000", "25000000000", "25000000000")

    def test_grid_validation_exits_3(self, tmp_path, capsys):
        grid = self.grid(tmp_path, {"alpha": []})
        assert run_cli("sweep", "--grid", grid) == 3
        grid = self.grid(tmp_path, {"voltage": [1]})
        assert run_cli("sweep", "--grid", grid) == 3
        out = tmp_path / "s.csv"
        for payload in ({"alpha": [True, False]}, {"ai": [float("inf")]}, {"beta_rand": [True]},
                        {"alpha": ["0.5"]}, {"mode": ["warp"]}, {"alpha": [0.5], "ai": [1e303]}):
            grid = self.grid(tmp_path, payload)
            assert run_cli("sweep", "--grid", grid, "--out", str(out)) == 3
            assert "config error: <grid>:" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ({"alpha": 0.5}, "sweep dimension 'alpha' must be a JSON array, got 0.5"),
        ({"beta_rand": [None]}, "beta_rand must be a finite number in (0.0, inf), got None"),
    ])
    def test_grid_value_shape_exits_3(self, tmp_path, capsys, payload, message):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--grid", self.grid(tmp_path, payload), "--out", str(out)) == 3
        assert f"config error: <grid>: {message}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_negative_env_seed_applies(self, tmp_path, monkeypatch):
        out = tmp_path / "a.json"
        monkeypatch.setenv(SEED_ENV_VAR, "-12")
        run_cli("simulate", "--out", str(out))
        assert json.loads(out.read_text())["seed"] == -12

    @pytest.mark.parametrize("value", ["not-a-number", "1_0", "\u0663", " 5", "+5", "-", "", "1.0"])
    def test_bad_env_seed_exits_3(self, value, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, value)
        assert run_cli("simulate") == 3
        assert f"{SEED_ENV_VAR}: not an integer" in capsys.readouterr().err

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


def test_cli_import_leaves_scipy_signal_unloaded():
    """scipy.signal is loaded only when an AR(1) non-ideality runs."""
    src = os.path.dirname(os.path.dirname(entropy_roofline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, entropy_roofline.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
