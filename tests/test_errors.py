"""Tests for the shared numeric checks and for their use at every spec boundary."""

import ast
import math
import pathlib
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from entropy_roofline import errors
from entropy_roofline.distribution_shaping import ShapingPipelineSpec
from entropy_roofline.entropy_sources import EntropyStream, NonidealitySpec, SourceSpec
from entropy_roofline.errors import DomainError, parse_number, require_finite, require_int
from entropy_roofline.fidelity import FidelityConfig
from entropy_roofline.perf_model import ArchParams
from entropy_roofline.probabilistic_memory import BackendConfig
from entropy_roofline.workload import conv_layer


class TestRequireFinite:
    @pytest.mark.parametrize("ends, accepted", [
        ("[]", [0.0, 0.5, 1.0]), ("()", [0.5]), ("[)", [0.0, 0.5]), ("(]", [0.5, 1.0]),
    ])
    def test_ends_open_or_close_the_interval(self, ends, accepted):
        for value in (-0.5, 0.0, 0.5, 1.0, 1.5):
            if value in accepted:
                require_finite("x", value, 0.0, 1.0, ends)
            else:
                with pytest.raises(DomainError):
                    require_finite("x", value, 0.0, 1.0, ends)

    @pytest.mark.parametrize("value", [
        True, False, "3", None, [1.0], math.nan, math.inf, -math.inf, 10**400,
        np.float32("inf"), np.float64("nan"), Fraction(10**400),
    ])
    def test_rejects_bools_non_numbers_and_non_finite_values(self, value):
        with pytest.raises(DomainError):
            require_finite("x", value)
        with pytest.raises(DomainError):
            require_finite("x", value, 0.0, math.inf, "[]")  # an infinite end is open

    @pytest.mark.parametrize("value", [np.float32(2.5), np.float64(2.5), np.int64(3), Fraction(5, 2)])
    def test_accepts_other_real_types(self, value):
        require_finite("x", value, 0.0, math.inf, "()")

    def test_error_names_parameter_and_interval(self):
        with pytest.raises(DomainError) as info:
            require_finite("rate", -1.0, 0.0, math.inf, "()")
        assert info.value.name == "rate"
        assert str(info.value) == "rate must be a finite number in (0.0, inf), got -1.0"

    def test_require_int_without_lower_bound(self):
        require_int("seed", -5)
        with pytest.raises(DomainError) as info:
            require_int("seed", 1.5)
        assert info.value.name == "seed"
        assert str(info.value) == "seed must be an integer, got 1.5"
        assert DomainError("other").name is None


@pytest.mark.parametrize("text, kind", [
    ("abc", float), ("", float), ("1.0.0", float), (" 1.5", float), ("1_0.5", float),
    ("", int), ("-1", int), ("1.5", int), ("\u0663", int), pytest.param("7" * 5000, int, id="5000-digits"),
])
def test_parse_number_rejects_text_its_writers_never_write(text, kind):
    with pytest.raises(DomainError) as info:
        parse_number(text, kind)
    shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text):,} characters)"
    assert str(info.value).endswith(shown)


@pytest.mark.parametrize("text, kind, message", [
    pytest.param("7" * 5000, int, f"expected no more than 4,300 digits, got '{'7' * 40}'... (5,000 characters)",
                 id="5000-digits"),
    pytest.param("7" * 140_000, int, f"expected no more than 4,300 digits, got '{'7' * 40}'... (140,000 characters)",
                 id="140000-digits"),
    pytest.param("7" * 39 + "x", int, f"expected unsigned ASCII digits, got '{'7' * 39}x'", id="40-characters"),
    pytest.param("7" * 40 + "x", int, f"expected unsigned ASCII digits, got '{'7' * 40}'... (41 characters)",
                 id="41-characters"),
    pytest.param("1" * 99 + ".0.0", float, f"expected a number, got '{'1' * 40}'... (103 characters)",
                 id="103-characters"),
])
def test_parse_number_error_echoes_at_most_40_characters(text, kind, message):
    with pytest.raises(DomainError) as info:
        parse_number(text, kind)
    assert str(info.value) == message


@pytest.mark.parametrize("text, kind, value", [
    ("0", int, 0), ("007", int, 7), pytest.param("7" * 4300, int, int("7" * 4300), id="4300-digits"),
    ("-0.0", float, -0.0), ("1e-300", float, 1e-300), ("2.5", float, 2.5),
])
def test_parse_number_reads_what_its_writers_write(text, kind, value):
    assert parse_number(text, kind) == value


# Every numeric field of every spec gets each of VALUES.  A field kind lists
# the values its domain holds; every other value must raise DomainError.
VALUES = (1.5, True, math.nan, math.inf, -1, "3")
ACCEPTS = {
    "integer": [-1],      # seeds and stream ids: any integer
    "count": [],          # integers >= 0, 1 or 2
    "real": [1.5, -1],    # any finite number
    "nonnegative": [1.5],
    "positive": [1.5],
    "unit": [],           # [0, 1], (0, 1), (0, 1] and (-1, 1)
    "at_least_one": [1.5],
}
SPECS = [
    ("ArchParams", lambda **kw: replace(ArchParams.default(), **kw), {
        "pi": "positive", "beta_data": "positive", "beta_rand": "positive",
        "bytes_per_element": "count",
    }),
    ("BackendConfig", lambda **kw: replace(BackendConfig.von_neumann(), **kw), {
        "read_energy_pj": "positive", "write_energy_pj": "positive",
        "sample_energy_pj": "positive", "latency_cycles": "count",
        "transport_bytes_per_sample": "nonnegative", "sigma0": "positive", "gamma": "nonnegative",
        "sigma_min_frac": "unit", "sigma_max_frac": "at_least_one",
        "writeback_bytes_per_sample": "nonnegative", "parallelism": "count",
    }),
    ("NonidealitySpec", NonidealitySpec, {"bias": "real", "rho": "unit", "drift": "real"}),
    ("SourceSpec", lambda **kw: SourceSpec(kind="pseudo_uniform", **kw), {
        "seed": "integer", "stream_id": "integer", "sigma": "nonnegative",
        "temperature": "positive", "capacitance": "positive", "sigma0": "nonnegative",
        "area_wl": "positive", "p": "unit",
    }),
    ("ShapingPipelineSpec", lambda **kw: ShapingPipelineSpec(method="inverse_cdf_table", **kw), {
        "n_entries": "count", "k": "count", "p": "unit", "cost": "count",
    }),
    ("FidelityConfig", FidelityConfig, {
        "significance": "unit", "max_lag": "count", "symbol_bits": "count",
        "seed": "integer", "stream_id": "integer",
    }),
    ("EntropyStream", EntropyStream, {"seed": "integer", "stream_id": "integer"}),
]
CASES = [
    pytest.param(make, field, value, value not in ACCEPTS[kind], id=f"{label}.{field}={value!r}")
    for label, make, fields in SPECS for field, kind in fields.items() for value in VALUES
]


@pytest.mark.parametrize("make, field, value, rejected", CASES)
def test_every_numeric_field_checks_its_domain(make, field, value, rejected):
    if rejected:
        with pytest.raises(DomainError, match=field):
            make(**{field: value})
    else:
        make(**{field: value})


@pytest.mark.parametrize("make, field", [
    (lambda v: BackendConfig.coupled_pcim(write_based_sampling=v), "write_based_sampling"),
    (lambda v: conv_layer(1, 1, 1, 1, 1, stochastic_weights=v), "stochastic_weights"),
])
def test_flags_take_only_bools(make, field):
    """A flag is a bool: ``"no"`` would read as true, ``0`` and ``None`` as false."""
    for value in ("no", "", 0, 1, 1.0, None):
        with pytest.raises(DomainError, match=f"{field} must be true or false, got {value!r}") as info:
            make(value)
        assert info.value.name == field
    assert make(True) != make(False)


@pytest.mark.parametrize("bits", [17, 64])
def test_symbol_bits_at_most_16(bits):
    """A report counts 2**symbol_bits symbols in one table; past 16 bits
    (512 KiB) the config is out of its domain."""
    with pytest.raises(DomainError, match=r"symbol_bits must be an integer in \[1, 16\]") as info:
        FidelityConfig(symbol_bits=bits)
    assert info.value.name == "symbol_bits"
    assert FidelityConfig(symbol_bits=16).symbol_bits == 16


def test_numeric_checks_live_only_in_errors():
    """Numbers are checked by ``require_int`` and ``require_finite`` alone;
    a hand-written finiteness, ABC or bool test elsewhere is a copy."""
    copy = re.compile(r"math\.isfinite|numbers\.Real|numbers\.Integral|__class__ is bool")
    package = pathlib.Path(errors.__file__).parent
    found = [
        f"{path.name}:{no}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for no, line in enumerate(path.read_text().splitlines(), start=1) if copy.search(line)
    ]
    assert found == []


def test_no_module_imports_csv():
    """Both CSV formats are one comma-split line per row, with no quoting;
    the csv module's quoting and field limit would take that back."""
    package = pathlib.Path(errors.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] in ("csv", "_csv") for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("csv", "_csv")
    ]
    assert found == []
