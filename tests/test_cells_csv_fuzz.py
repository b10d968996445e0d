"""Bounded property tests of the cells CSV (``save_array_csv`` / ``load_array_csv``).

Random rows raise only the package's row errors, and every array of valid
cells reads back equal field for field.  Addresses stay below 64: the
loader sizes the array from the largest address it reads, so one line at
(30000, 30000) would allocate tens of GiB (see README).
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entropy_roofline.errors import AddressError, DomainError
from entropy_roofline.probabilistic_memory import (
    BACKEND_KINDS,
    CELLS_CSV_FIELDS,
    BackendConfig,
    DistributionSpec,
    PMemArray,
    load_array_csv,
    save_array_csv,
)

HEADER = ",".join(CELLS_CSV_FIELDS)
BOUNDED = settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])

# Text of no line break and no ASCII digit, so no field can spell a large address
_junk = st.text(st.characters(blacklist_characters="0123456789\r\n", blacklist_categories=("Cs",)), max_size=6)
_address = st.one_of(st.integers(-2, 63).map(str), st.sampled_from(["", "-", "+1", "1_0", "1.0", " 1", "٣"]),
                     _junk)
_family = st.one_of(st.sampled_from(["gaussian", "bernoulli", "point_mass", "Gaussian", "poisson", ""]), _junk)
_number = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.integers(-3, 3).map(str),
                    st.sampled_from(["0.0", "-0.0", "1.0", "0.5", "1e-300", "1_0.5", " 0.5", "nan", "1.0.0"]),
                    _junk)
_row = st.lists(st.one_of(_address, _family, _number), min_size=0, max_size=7).map(",".join)
_cells_row = st.tuples(_address, _address, _family, _number, _number).map(",".join)


def _spec_or_none(family, values):
    try:
        return DistributionSpec(family, **values)
    except DomainError:
        return None


# A spec of a random value in every field, kept where the spec accepts them:
# every family, both ends of p, gaussian sigma 0 and signed zeros included
_field_value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324]), st.floats(0.0, 1.0), st.floats(-1e300, 1e300))
_specs = st.builds(
    _spec_or_none, st.sampled_from(["gaussian", "bernoulli", "point_mass"]),
    st.fixed_dictionaries({f.name: st.one_of(st.just(0.0), _field_value)
                           for f in fields(DistributionSpec) if f.name != "family"}),
).filter(lambda spec: spec is not None)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("cells") / "cells.csv"


@BOUNDED
@given(rows=st.lists(st.one_of(_cells_row, _row), min_size=1, max_size=4),
       kind=st.sampled_from(BACKEND_KINDS), crlf=st.booleans())
def test_random_rows_raise_only_row_errors(path, rows, kind, crlf):
    path.write_bytes((HEADER + "\n" + ("\r\n" if crlf else "\n").join(rows) + "\n").encode())
    try:
        array = load_array_csv(str(path), BackendConfig(kind=kind))
    except (DomainError, AddressError):
        return
    assert array.rows <= 64 and array.cols <= 64


@BOUNDED
@given(specs=st.lists(_specs, min_size=1, max_size=6), cols=st.integers(1, 3))
def test_valid_cells_round_trip_field_for_field(path, specs, cols):
    rows = math.ceil(len(specs) / cols)
    array = PMemArray(rows, cols, BackendConfig.decoupled_in_memory())
    for k, spec in enumerate(specs):
        array.write(divmod(k, cols), spec)
    save_array_csv(array, str(path))
    loaded = load_array_csv(str(path), BackendConfig.decoupled_in_memory())
    assert (loaded.rows, loaded.cols) == (rows, cols)
    for k in range(rows * cols):
        got, want = loaded.cell(divmod(k, cols)), array.cell(divmod(k, cols))
        for f in fields(DistributionSpec):
            g, w = getattr(got, f.name), getattr(want, f.name)
            assert (type(g), repr(g)) == (type(w), repr(w)), f.name
        assert repr(got) == repr(want)
    assert np.array_equal(loaded.endurance_map, np.zeros((rows, cols), dtype=np.int64))
