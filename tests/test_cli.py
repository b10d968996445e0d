"""End-to-end tests of the command-line interface and config ingestion."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entropy_roofline
from entropy_roofline import cli
from entropy_roofline.cli import SEED_ENV_VAR, main, parse_config
from entropy_roofline.errors import ConfigError
from entropy_roofline.fidelity import N_MAX, N_MIN
from entropy_roofline.perf_model import RegimeLabel
from entropy_roofline.workload import _BLOCK_BYTES, load_trace


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def cells_shapes(monkeypatch):
    """The stored shape of each column ``cli._cells`` formats, in call order."""
    shapes = []
    original = cli._cells

    def counting(values):
        shapes.append(values.shape)
        return original(values)

    monkeypatch.setattr(cli, "_cells", counting)
    return shapes


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

    # a backend has no entropy rate of its own: arch.beta_rand is the one
    @pytest.mark.parametrize("key", ["rng_ratee", "rng_rate"])
    def test_unknown_nested_key_has_dotted_path(self, key, tmp_path, capsys):
        with pytest.raises(ConfigError) as info:
            parse_config({"backend": {key: 1e9}})
        assert info.value.path == f"backend.{key}"
        cfg, grid, out = tmp_path / "c.json", tmp_path / "g.json", tmp_path / "o"
        cfg.write_text(json.dumps({"backend": {key: 1e9}}))
        grid.write_text(json.dumps({"alpha": [0.5]}))
        for argv in (["simulate"], ["sweep", "--grid", str(grid)]):
            assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 3
            assert f"config error: backend.{key}: unknown key" in capsys.readouterr().err
        assert not out.exists()

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
        ("arch", {"beta_rand": [1e9]}),
        ("nonideality", {"rho": "0.1"}),
        ("nonideality", {"bias": "0.1"}),
        ("backend", {"kind": "decoupled_in_memory", "parallelism": 2.5}),
        ("backend", {"latency_cycles": 1.5}),
        ("arch", {"bytes_per_element": 2.5}),
        ("backend", {"read_energy_pj": True}),
        ("arch", {"pi": True}),
        ("arch", {"beta_rand": 1e999}),  # json writes Infinity, which json reads as inf
        ("seed", True),
        ("shaping", {"method": "inverse_cdf_table", "n_entries": 2.5}),
        ("shaping", {"p": True}),
        ("nonideality", {"rho": 1e999}),
        ("nonideality", {"drift": float("nan")}),  # json writes NaN, which json reads as nan
        ("arch", {"beta_rand": -1}),
        ("backend", {"sigma_min_frac": 1.5}),
        ("backend", {"gamma": True}),
        ("backend", {"kind": "coupled_pcim", "write_based_sampling": "no"}),  # "no" is truthy
        ("backend", {"write_based_sampling": 0}),
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

    @pytest.mark.parametrize("flag", ["--beta-data", "--beta-rand", "--config"])
    def test_time_overflow_names_the_rate(self, flag, tmp_path, capsys):
        """A rate so small that a time per access overflows wrote phi 0.0 as
        DataBound: a flag's exits 2 naming the flag, a config's 3 naming its key."""
        cfg, out = tmp_path / "c.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"arch": {"beta_data": 5e-324}}))
        value = str(cfg) if flag == "--config" else "5e-324"
        name = "beta_rand" if flag == "--beta-rand" else "beta_data"
        argv = ["roofline", flag, value, "--alpha", "0.5", "--points", "2", "--out", str(out)]
        if flag == "--config":
            assert run_cli(*argv) == 3
        else:
            with pytest.raises(SystemExit) as info:
                run_cli(*argv)
            assert info.value.code == 2
        where = f"config error: arch.{name}" if flag == "--config" else f"error: {flag}"
        assert (f"{where}: the time per access overflows the float range at {name} = 5e-324"
                in capsys.readouterr().err)
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

    @pytest.mark.parametrize("block_rows, expected", [
        # one block: alpha, ai, beta_eff, phi and regime, each once
        (cli._CSV_BLOCK_ROWS, [(3, 1), (1, 4), (3, 1), (3, 4), (3, 4)]),
        # a curve a block: ai once, every other column once per curve
        (4, [(1, 1), (1, 4), (1, 1), (1, 4), (1, 4)] + [(1, 1), (1, 1), (1, 4), (1, 4)] * 2),
        # half a curve a block: alpha and beta_eff once per curve, ai, phi and regime per block
        (2, ([(1, 1), (1, 2), (1, 1), (1, 2), (1, 2)] + [(1, 2)] * 3) * 3),
    ])
    def test_ai_formatted_once_per_part_of_the_grid(self, tmp_path, cells_shapes, monkeypatch, block_rows, expected):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        assert run_cli("roofline", "--alpha", "0,0.5,1", "--points", "4",
                       "--out", str(tmp_path / "r.csv")) == 0
        assert cells_shapes == expected


# float64 values whose reprs a per-value cache could confuse: signed zeros,
# infinities, NaNs with other sign and payload bits, subnormals
_NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8DEADBEEF0001)
_AWKWARD_FLOATS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308,
                   1.0, 0.1, 1e300] + [struct.unpack("<d", struct.pack("<Q", b))[0] for b in _NAN_BITS]


# one stored shape per kind of SweepTable column (varying over alpha, ai,
# configs or all three) and per kind of roofline column (over curves, points or both)
_STORED_AXES = {3: [(0,), (1,), (2,), (0, 1, 2)], 2: [(0,), (1,), (0, 1)]}
_OBJECT_POOL = [1, 1.0, True, 0, -0.0, 0.0, 25 * 10**9, 2.5e10, math.nan,
                RegimeLabel.DATA_BOUND, RegimeLabel.COMPUTE_BOUND, "coupled_pcim", "serialized"]
_FLOAT_POOLS = st.builds(lambda floats, awkward: [-0.0, 0.0] + floats + awkward,
                         st.lists(st.floats(), max_size=3), st.lists(st.sampled_from(_AWKWARD_FLOATS), max_size=8))
_OBJECT_POOLS = st.lists(st.sampled_from(_OBJECT_POOL + _AWKWARD_FLOATS), min_size=1, max_size=8)
_SHAPES = st.one_of(st.tuples(*[st.integers(1, 6)] * 3), st.tuples(*[st.integers(1, 6)] * 2))


@st.composite
def _sweep_column(draw, pools, dtype, shapes=_SHAPES):
    """A ``dtype`` column at one of the shapes ``SweepTable`` or ``roofline``
    stores for a row shape from ``shapes``, its values drawn from a small
    pool, so duplicates are the rule."""
    shape = draw(shapes)
    axes = draw(st.sampled_from(_STORED_AXES[len(shape)]))
    stored = tuple(n if axis in axes else 1 for axis, n in enumerate(shape))
    values = draw(st.lists(st.sampled_from(draw(pools)), min_size=math.prod(stored), max_size=math.prod(stored)))
    array = np.empty(len(values), dtype=dtype)
    array[:] = values
    return array.reshape(stored)


@st.composite
def _csv_columns(draw):
    """Float and object columns at stored shapes that broadcast to one row
    shape, whose first axis is 1 or more."""
    shape = draw(st.tuples(st.sampled_from([1, 2, 3]), *[st.integers(1, 4)] * draw(st.sampled_from([1, 2]))))
    columns = {}
    for i in range(draw(st.integers(1, 5))):
        pools, dtype = draw(st.sampled_from([(_FLOAT_POOLS, np.float64), (_OBJECT_POOLS, object)]))
        columns[f"c{i}"] = draw(_sweep_column(pools, dtype, st.just(shape)))
    return columns, shape


def _whole_csv_text(schema, columns, shape):
    """The CSV as one text, every column's cells first, then every row: the
    formatter ``_csv_blocks`` replaced, kept as its oracle."""
    def cells(values):
        flat, inverse = values.ravel(), slice(None)
        if values.dtype.kind == "f":
            flat, inverse = np.unique(flat.view(np.int64), return_inverse=True)
        text = [v if isinstance(v, str) else repr(v) for v in flat.view(values.dtype).tolist()]
        return np.broadcast_to(np.array(text, dtype=object)[inverse].reshape(values.shape), shape).ravel().tolist()

    major_minor = ".".join(entropy_roofline.__version__.split(".")[:2])
    lines = [f"# entropy-roofline v{major_minor} schema={schema}", ",".join(columns)]
    lines += map(",".join, zip(*(cells(values) for values in columns.values())))
    return "\n".join(lines) + "\n"


class TestCells:
    @given(_sweep_column(_FLOAT_POOLS, np.float64))
    def test_floats_format_as_their_reprs(self, array):
        cells = cli._cells(array)
        assert cells.shape == array.shape
        assert cells.ravel().tolist() == [repr(v) for v in array.ravel().tolist()]

    @given(_sweep_column(st.lists(st.sampled_from(_OBJECT_POOL), min_size=1, max_size=8), object))
    def test_objects_format_one_by_one(self, array):
        cells = cli._cells(array)
        assert cells.shape == array.shape
        assert cells.ravel().tolist() == [v if isinstance(v, str) else repr(v) for v in array.ravel().tolist()]

    def test_nan_payloads_and_signed_zeros(self):
        array = np.array(_AWKWARD_FLOATS * 3)
        assert cli._cells(array).tolist() == [repr(v) for v in array.tolist()]
        assert cli._cells(np.array([-0.0, 0.0, -0.0])).tolist() == ["-0.0", "0.0", "-0.0"]

    @given(_csv_columns(), st.integers(1, 40))
    def test_blocks_join_to_the_whole_text(self, table, block_rows):
        columns, shape = table
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
            blocks = list(cli._csv_blocks("sweep", columns, shape))
        assert all(0 < block.count("\n") <= block_rows for block in blocks[1:])
        assert "".join(blocks) == _whole_csv_text("sweep", columns, shape)


class TestRowBlocks:
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(1, 50))
    def test_blocks_cut_the_rows_in_order(self, shape, rows):
        grid = np.arange(math.prod(shape)).reshape(shape)
        parts = [grid[tuple(slice(*span) for span in block)] for block in cli._row_blocks(shape, rows)]
        assert all(0 < part.size <= rows for part in parts)
        assert np.concatenate([part.ravel() for part in parts]).tolist() == grid.ravel().tolist()

    @pytest.mark.parametrize("shape, rows, expected", [
        ((5, 3), 7, [((0, 2), (0, 3)), ((2, 4), (0, 3)), ((4, 5), (0, 3))]),
        ((2, 5), 3, [((0, 1), (0, 3)), ((0, 1), (3, 5)), ((1, 2), (0, 3)), ((1, 2), (3, 5))]),
        ((100_000, 1, 1), 8192, [((i, min(i + 8192, 100_000)), (0, 1), (0, 1)) for i in range(0, 100_000, 8192)]),
    ])
    def test_whole_slabs_while_they_fit(self, shape, rows, expected):
        assert list(cli._row_blocks(shape, rows)) == expected


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

    @pytest.mark.parametrize("line, message", [
        (b"sample,0,\xff,1", "expected unsigned ASCII digits, got '\\udcff'"),
        (b"sam\xffple,0,0,1", "unknown trace op 'sam\\udcffple'"),
    ], ids=["count", "op"])
    def test_undecodable_byte_exits_3(self, tmp_path, capsys, line, message):
        """A byte that is not UTF-8 fails its own field's check on its line."""
        trace = tmp_path / "t.csv"
        trace.write_bytes(b"op,row,col,count\r\nread,0,0,1\r\n" + line + b"\r\nread,0,0,1\r\n")
        assert run_cli("simulate", "--trace", str(trace)) == 3
        assert f"trace error: line 3: {message}" in capsys.readouterr().err

    def test_trace_without_accesses_exits_3(self, tmp_path, capsys):
        """A trace with no read, write or sample line is a bad trace file,
        header only or compute only, not a flag error."""
        for name, body in (("empty.csv", ""), ("compute.csv", "compute,,,5\r\n")):
            trace, out = tmp_path / name, tmp_path / "res.json"
            trace.write_text("op,row,col,count\r\n" + body, newline="")
            assert run_cli("simulate", "--trace", str(trace), "--out", str(out)) == 3
            assert f"config error: {trace}: the trace has no read, write or sample lines" in capsys.readouterr().err
            assert not out.exists()

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

    @pytest.mark.parametrize("arch, backend, name", [
        ({"beta_data": 5e-324}, "von_neumann", "beta_data"),
        ({"pi": 5e-324}, "von_neumann", "pi"),
        ({"beta_rand": 5e-324}, "decoupled_in_memory", "beta_rand"),
        ({"beta_data": 5e-324}, "coupled_pcim", "beta_data"),  # coupled cells sample at beta_data
    ])
    def test_time_overflow_exits_3_naming_the_rate(self, arch, backend, name, tmp_path, capsys):
        """A rate so small that a time is past the float range would write
        ``"elapsed_time": Infinity``, which is not JSON, and a rate of 0."""
        cfg, out = tmp_path / "c.json", tmp_path / "res.json"
        cfg.write_text(json.dumps({"arch": arch}))
        assert run_cli("simulate", "--config", str(cfg), "--backend", backend, "--out", str(out)) == 3
        assert (f"config error: arch.{name}: elapsed time overflows the float range at {name} = 5e-324"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--shape", "--trace"])
    def test_count_past_the_float_range_names_its_source(self, source, tmp_path, capsys):
        """A count of 320 digits exited 1 with an OverflowError traceback."""
        out, trace = tmp_path / "res.json", tmp_path / "t.csv"
        trace.write_bytes(b"op,row,col,count\r\nsample,0,0," + b"9" * 320 + b"\r\nread,0,0,1\r\n")
        if source == "--shape":
            with pytest.raises(SystemExit) as info:
                run_cli("simulate", "--workload", "mc", "--shape", "9" * 320 + ",4", "--out", str(out))
            assert info.value.code == 2
            want = "error: --shape: n_ops is past the float range"
        else:
            assert run_cli("simulate", "--trace", str(trace), "--out", str(out)) == 3
            want = f"config error: {trace}: stoch_accesses is past the float range"
        err = capsys.readouterr().err
        assert want in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("backend, name", [
        ("coupled_pcim", "energy_pj"), ("decoupled_near_memory", "bytes_moved")])
    @pytest.mark.parametrize("source", ["--shape", "--trace"])
    def test_cost_past_the_float_range_names_its_source(self, source, backend, name, tmp_path, capsys):
        """10**308 draws wrote ``"energy_pj": Infinity``, which is not JSON, and exited 0."""
        out, trace = tmp_path / "res.json", tmp_path / "t.csv"
        trace.write_bytes(b"op,row,col,count\r\nsample,0,0,1" + b"0" * 308 + b"\r\nread,0,0,1\r\n")
        if source == "--shape":
            with pytest.raises(SystemExit) as info:
                run_cli("simulate", "--workload", "mc", "--shape", f"{10**308},1", "--backend", backend,
                        "--out", str(out))
            assert info.value.code == 2
            want = f"error: --shape: the cost report's {name} is past the float range"
        else:
            assert run_cli("simulate", "--trace", str(trace), "--backend", backend, "--out", str(out)) == 3
            want = f"config error: {trace}: the cost report's {name} is past the float range"
        assert want in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, key", [
        ({"backend": {"kind": "decoupled_in_memory", "sample_energy_pj": 1e308}}, "backend.sample_energy_pj"),
        ({"backend": {"kind": "von_neumann", "read_energy_pj": 1e308}}, "backend.read_energy_pj"),
        ({"arch": {"bytes_per_element": 10**308}}, "arch.bytes_per_element"),
    ])
    def test_cost_past_the_float_range_names_the_config_charge(self, config, key, tmp_path, capsys):
        """Draws at 1e308 pJ exited 2 blaming ``--shape``."""
        cfg, out = tmp_path / "c.json", tmp_path / "res.json"
        cfg.write_text(json.dumps(config))
        argv = ["--workload", "bnn", "--shape", "2,2,1"]  # four reads and four draws
        assert run_cli("simulate", "--config", str(cfg), *argv, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert f"config error: {key}: the cost report's " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_element_width_past_the_float_range_exits_3(self, command, tmp_path, capsys):
        """A width of 401 digits exited 1 with an OverflowError traceback."""
        cfg, grid, out = tmp_path / "c.json", tmp_path / "g.json", tmp_path / "o"
        cfg.write_text('{"arch": {"bytes_per_element": 1' + "0" * 400 + "}}")
        grid.write_text(json.dumps({"alpha": [0.5]}))
        argv = ["simulate", "--workload", "mc", "--shape", "10,1"] if command == "simulate" else ["sweep", "--grid", str(grid)]
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "config error: arch: bytes_per_element must be an integer in [1, " in err and "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("samples", [10, N_MIN - 1, N_MAX + 1])  # the library's bounds
    def test_sample_bounds_exit_2(self, samples, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("fidelity", "--samples", str(samples), "--out", str(tmp_path / "f.json"))
        assert info.value.code == 2
        assert f"error: --samples: must lie in [{N_MIN}, {N_MAX}], got {samples}" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_uniform_target(self, tmp_path):
        """A uniform target judges the raw words, before any shaping: they pass,
        and the shaping section does not change a byte."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"shaping": {"method": "bernoulli_threshold"}}))
        shaped, default = tmp_path / "shaped.json", tmp_path / "default.json"
        assert run_cli("fidelity", "--config", str(cfg), "--samples", "10000", "--seed", "3",
                       "--target", "uniform", "--out", str(shaped)) == 0
        assert run_cli("fidelity", "--samples", "10000", "--seed", "3",
                       "--target", "uniform", "--out", str(default)) == 0
        assert shaped.read_bytes() == default.read_bytes()
        doc = json.loads(default.read_text())
        assert doc["pipeline"] is None
        assert doc["report"]["ks_pass"] is True

    @pytest.mark.parametrize("target", ["normal", "uniform"])
    def test_nonideality_past_the_float_range_exits_3(self, target, tmp_path, capsys):
        """Samples carried past the float range are a config error, not a
        report of inf and NaN fields."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"nonideality": {"bias": 1.79e308, "drift": 1e308}}))
        out = tmp_path / "f.json"
        assert run_cli("fidelity", "--config", str(cfg), "--samples", "20000", "--target", target,
                       "--out", str(out)) == 3
        assert ("config error: nonideality: mean must be a finite number in (-inf, inf), got inf: the nonideality"
                in capsys.readouterr().err)
        assert not out.exists()


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
        ("mc", f"{2 * (_BLOCK_BYTES // 14) + 1},3"),  # a run of 14-byte sample lines written in three blocks
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
        grid = self.grid(tmp_path, {"alpha": [0.5], "backend": ["coupled_pcim", "decoupled_in_memory"]})
        assert run_cli("sweep", "--grid", grid, "--config", str(config), "--out", str(out)) == 0
        header, rows = data_rows(out.read_text())
        cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert [(c["beta_rand"], c["beta_data_eff"], c["beta_rand_eff"]) for c in cells] == [
            ("1000000000", "25000000000", "25000000000"),  # coupled samples at beta_data
            ("1000000000", "25000000000", "1000000000"),  # one lane at beta_rand
        ]

    def test_int_rate_past_float_range_rows_equal_float_rows(self, tmp_path):
        """parallelism times an int beta_rand past the float range times the
        simulator as the float config's inf rate does."""
        grid = self.grid(tmp_path, {"alpha": [0.5, 1.0], "mode": ["serialized", "overlapped"]})
        res, out = tmp_path / "res.json", tmp_path / "s.csv"
        rows = []
        for rate in (10**308, 1e308):
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"arch": {"beta_rand": rate},
                                          "backend": {"kind": "decoupled_in_memory", "parallelism": 2}}))
            assert run_cli("simulate", "--workload", "mc", "--config", str(config), "--out", str(res)) == 0
            result = json.loads(res.read_text())["result"]
            assert run_cli("sweep", "--grid", grid, "--config", str(config), "--out", str(out)) == 0
            header, lines = data_rows(out.read_text())
            cells = [dict(zip(header.split(","), line.split(","))) for line in lines]
            rows.append(([result[k] for k in ("elapsed_time", "achieved_phi", "regime_observed")],
                         [(c["elapsed_time"], c["achieved_phi"], c["regime"], c["beta_rand_eff"])
                          for c in cells]))
        assert rows[0] == rows[1]
        assert {c[3] for c in rows[0][1]} == {"inf"}

    def test_one_entropy_rate(self, tmp_path):
        # arch.beta_rand, set once, times the roofline, the simulator and the sweep
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"arch": {"beta_rand": 1e6}}))
        roof, res, out = tmp_path / "r.csv", tmp_path / "res.json", tmp_path / "s.csv"
        assert run_cli("roofline", "--alpha", "1", "--ai-min", "4", "--points", "2",
                       "--config", str(config), "--out", str(roof)) == 0
        _, rows = data_rows(roof.read_text())
        assert rows[0] == "1.0,4.0,1000000.0,4000000.0,EntropyBound"
        assert run_cli("simulate", "--workload", "mc", "--config", str(config), "--out", str(res)) == 0
        result = json.loads(res.read_text())["result"]
        # 1e6 draws for 4e6 operations, each draw at 1e6/s plus one element of transport
        assert result["regime_observed"] == "EntropyBound"
        assert result["achieved_phi"] == pytest.approx(4e6 / (1.0 + 1e6 / 25e9), rel=1e-9)
        grid = self.grid(tmp_path, {"alpha": [1.0], "backend": ["decoupled_near_memory",
                                                                "decoupled_in_memory"]})
        assert run_cli("sweep", "--grid", grid, "--config", str(config), "--out", str(out)) == 0
        header, rows = data_rows(out.read_text())
        cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert [(c["beta_rand"], c["beta_rand_eff"], c["regime"]) for c in cells] == [
            ("1000000.0", repr(1 / (1 / 1e6 + 1 / 25e9)), "EntropyBound"),  # write-back folded in
            ("1000000.0", "1000000.0", "EntropyBound"),
        ]

    @pytest.mark.parametrize("block_rows, expected", [
        # one block: alpha, ai, the five config columns and the four result columns, each once
        (cli._CSV_BLOCK_ROWS, [(3, 1, 1), (1, 2, 1)] + [(1, 1, 4)] * 5 + [(3, 2, 4)] * 4),
        # an alpha slab a block: ai and the config columns once, alpha and the results per slab
        (8, [(1, 1, 1), (1, 2, 1)] + [(1, 1, 4)] * 5 + [(1, 2, 4)] * 4 + ([(1, 1, 1)] + [(1, 2, 4)] * 4) * 2),
    ])
    def test_columns_formatted_once_per_part_of_the_grid(self, tmp_path, cells_shapes, monkeypatch,
                                                         block_rows, expected):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        grid = self.grid(tmp_path, {"alpha": [0.0, 0.5, 1.0], "ai": [1.0, 10.0],
                                    "backend": ["von_neumann", "coupled_pcim"],
                                    "mode": ["serialized", "overlapped"]})
        assert run_cli("sweep", "--grid", grid, "--out", str(tmp_path / "s.csv")) == 0
        assert cells_shapes == expected

    def test_many_short_alpha_slabs_share_a_block(self, tmp_path, cells_shapes):
        # a block per alpha would format every column 2,000 times
        grid = self.grid(tmp_path, {"alpha": [i / 1999 for i in range(2000)]})
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--grid", grid, "--out", str(out)) == 0
        assert len(cells_shapes) == len(out.read_text().splitlines()[1].split(",")) == 11

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
        ({"beta_rand": [5e-324, 1e9]}, "elapsed time overflows the float range at beta_rand = 5e-324"),
    ])
    def test_grid_value_shape_exits_3(self, tmp_path, capsys, payload, message):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--grid", self.grid(tmp_path, payload), "--out", str(out)) == 3
        assert f"config error: <grid>: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workload, shape", [
        ("mc", "9" * 320 + ",4"),
        ("conv", "1,1," + "1" + "0" * 400 + ",1" + "0" * 400 + ",1,1"),  # ai itself past the float range
    ], ids=["mc", "conv"])
    def test_count_past_the_float_range_exits_2(self, workload, shape, tmp_path, capsys):
        """A count of 320 digits exited 1 with an OverflowError traceback."""
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as info:
            run_cli("sweep", "--grid", self.grid(tmp_path, {"mode": ["serialized"]}),
                    "--workload", workload, "--shape", shape, "--out", str(out))
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error: --shape: n_ops is past the float range" in err and "Traceback" not in err
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


class TestBlockedCsv:
    """``sweep`` and ``roofline`` write their CSVs a block of at most
    ``_CSV_BLOCK_ROWS`` rows at a time, so neither holds the whole text."""

    @staticmethod
    def argv(command, tmp_path, n_alpha, n_ai):
        alphas = [i / max(1, n_alpha - 1) for i in range(n_alpha)]
        if command == "roofline":
            return ["roofline", "--alpha", ",".join(map(repr, alphas)), "--points", str(n_ai)]
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"alpha": alphas, "ai": [10 ** (6 * i / n_ai) for i in range(n_ai)]}))
        return ["sweep", "--grid", str(grid)]

    @pytest.mark.parametrize("command", ["sweep", "roofline"])
    def test_stdout_equals_out_file(self, command, tmp_path, capsysbinary, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 5)  # each of the 4 slabs of 9 rows in two blocks
        argv = self.argv(command, tmp_path, 4, 9)
        out = tmp_path / "o.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        capsysbinary.readouterr()
        assert run_cli(*argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()
        assert len(out.read_bytes().splitlines()) == 2 + 4 * 9

    @pytest.mark.parametrize("command, n_alpha, n_ai, limit_mib", [
        ("sweep", 100, 1000, 16),  # holding the whole text would take ~70 MiB
        ("sweep", 1, 100_000, 24),  # ~77 MiB: one alpha slab, cut by ai
        ("roofline", 6, 10_000, 12),  # ~23 MiB
    ])
    def test_peak_memory_is_a_block_not_the_text(self, command, n_alpha, n_ai, limit_mib, tmp_path):
        argv = self.argv(command, tmp_path, n_alpha, n_ai)
        out = tmp_path / "o.csv"
        tracemalloc.start()
        try:
            assert run_cli(*argv, "--out", str(out)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20


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

    def test_negative_flag_seed_applies(self, tmp_path):
        out = tmp_path / "a.json"
        assert run_cli("simulate", "--seed", "-12", "--out", str(out)) == 0
        assert json.loads(out.read_text())["seed"] == -12

    def test_fidelity_seed_changes_samples(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("fidelity", "--samples", "10000", "--seed", "1", "--out", str(a))
        run_cli("fidelity", "--samples", "10000", "--seed", "2", "--out", str(b))
        ra = json.loads(a.read_text())["report"]["ks_statistic"]
        rb = json.loads(b.read_text())["report"]["ks_statistic"]
        assert ra != rb


class TestIntegerFlags:
    """The integer flags read an int as the env seed does; only a seed may be negative."""

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--seed"), ("fidelity", "--seed"), ("sweep", "--seed"),
        ("roofline", "--points"), ("fidelity", "--samples"), ("sweep", "--jobs"),
    ])
    @pytest.mark.parametrize("value", ["not-a-number", "1_0", "\u0663", " 5", "+5", "", "1.0", "1e3", "--1"])
    def test_bad_integer_flag_exits_2(self, command, flag, value, tmp_path, capsys):
        grid = ["--grid", str(tmp_path / "g.json")] if command == "sweep" else []
        with pytest.raises(SystemExit) as info:
            run_cli(command, f"{flag}={value}", *grid, "--out", str(tmp_path / "out"))
        assert info.value.code == 2
        assert f"error: argument {flag}: expected " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("roofline", "--points"), ("fidelity", "--samples"), ("sweep", "--jobs"),
    ])
    def test_negative_count_flag_exits_2(self, command, flag, tmp_path, capsys):
        grid = ["--grid", str(tmp_path / "g.json")] if command == "sweep" else []
        with pytest.raises(SystemExit) as info:
            run_cli(command, f"{flag}=-3", *grid)
        assert info.value.code == 2
        assert f"error: argument {flag}: expected unsigned ASCII digits, got '-3'" in capsys.readouterr().err


class TestFloatFlags:
    """The float flags and each ``--alpha`` item read a float as a cells CSV
    does: ASCII, with no underscore or surrounding space."""

    @pytest.mark.parametrize("flag", ["--ai-min", "--ai-max", "--pi", "--beta-data", "--beta-rand", "--alpha"])
    # float() takes all but the first two; 1_0e13 would run at 1e14
    @pytest.mark.parametrize("value", ["not-a-number", "1.0.0", "1_0", "1_0e13", "\u0660", "\u0661e3",
                                       " 1e3", "1e3 ", "\t1"])
    def test_bad_float_flag_exits_2(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("roofline", f"{flag}={value}", "--out", str(tmp_path / "out"))
        assert info.value.code == 2
        err = capsys.readouterr().err
        if flag == "--alpha":
            assert "error: --alpha: expected a comma-separated list of numbers" in err
        else:
            assert f"error: argument {flag}: expected a number, got " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0.5,\u0660", "0, 0.5", "0.5 ,1", "0.5,1_0"])
    def test_every_alpha_item_is_checked(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("roofline", "--alpha", value, "--out", str(tmp_path / "out"))
        assert info.value.code == 2
        assert "error: --alpha: expected a comma-separated list of numbers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_plain_float_forms_run(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("roofline", "--alpha=-0.0,+.5,1E0", "--ai-min", "1E-2", "--ai-max", "+1e3",
                       "--pi", "1e13", "--beta-data", "25e9", "--beta-rand", "1.e9", "--points", "2",
                       "--out", str(out)) == 0
        _, rows = data_rows(out.read_text())
        assert [row.split(",")[:2] for row in rows] == [
            ["-0.0", "0.01"], ["-0.0", "1000.0"], ["0.5", "0.01"], ["0.5", "1000.0"],
            ["1.0", "0.01"], ["1.0", "1000.0"]]


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
        ("roofline_curve", ["roofline", "--alpha", "0,0.5,1", "--points", "4"]),  # one call for every alpha
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


def test_cli_import_leaves_scipy_signal_unloaded(tmp_path):
    """No scipy module loads with the CLI, nor in a command that draws no
    normals and judges no gaussian; ``fidelity`` loads ``scipy.special``, and
    ``scipy.signal`` is loaded only when an AR(1) non-ideality runs."""
    src = os.path.dirname(os.path.dirname(entropy_roofline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    (tmp_path / "g.json").write_text(json.dumps({"alpha": [0.0, 1.0]}))
    probe = """if True:
        import json, sys
        import entropy_roofline.cli as cli
        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        seen = {"import": loaded()}
        for argv in (["gen-trace", "--workload", "mc", "--shape", "10,4", "--out", "t.csv"],
                     ["roofline", "--alpha", "0,1", "--out", "r.csv"],
                     ["sweep", "--grid", "g.json", "--out", "s.csv"],
                     ["simulate", "--out", "a.json"],
                     ["simulate", "--trace", "t.csv", "--out", "b.json"],
                     ["fidelity", "--samples", "1000", "--out", "f.json"]):
            assert cli.main(argv) == 0, argv
            seen[" ".join(argv[:3])] = loaded()
        print(json.dumps(seen))
    """
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout)
    fidelity = seen.pop("fidelity --samples 1000")
    assert seen == dict.fromkeys(seen, [])
    assert "scipy.special" in fidelity and "scipy.signal" not in fidelity
