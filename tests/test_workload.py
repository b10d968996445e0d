"""Tests for workload generators and the trace format."""

import csv
import io
import math
import os
import re
import tracemalloc
from itertools import accumulate, groupby
from operator import countOf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_roofline import workload
from entropy_roofline.errors import (
    DegenerateWorkloadError,
    DomainError,
    TraceParseError,
    parse_number,
)
from entropy_roofline.workload import (
    _BLOCK_BYTES,
    _READ_BYTES,
    TRACE_CSV_HEADER,
    TRACE_OPS,
    TraceRecord,
    WorkloadSpec,
    _line_runs,
    aggregate,
    bnn_layer,
    bnn_trace,
    conv_layer,
    conv_trace,
    load_trace,
    mc_estimator,
    mc_trace,
    save_trace,
)


_RUN = _BLOCK_BYTES // len("sample,0,0,1\r\n")  # lines of an mc draw in a block


def _expanded(runs):
    """The records of ``(record, k)`` runs, one per line."""
    return [rec for rec, k in runs for _ in range(k)]


def _grouped(items):
    """``(item, k)`` for each run of ``k`` equal consecutive items."""
    return [(item, countOf(run, item)) for item, run in groupby(items)]


class TestBnnLayer:
    def test_128_square(self):
        wl = bnn_layer(128, 128, 1)
        assert wl.n_ops == 32768
        assert wl.stoch_accesses == 16384
        assert wl.det_accesses == 256
        assert wl.alpha() == pytest.approx(16384 / 16640, rel=1e-15)
        assert wl.ai() == pytest.approx(32768 / 16640, rel=1e-15)

    def test_minimal(self):
        assert bnn_layer(1, 1, 1).alpha() == pytest.approx(1 / 3)

    def test_alpha_tends_to_one(self):
        alphas = [bnn_layer(n, n, 1).alpha() for n in (8, 64, 512, 4096)]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] > 0.999

    def test_alpha_high_at_128_and_above(self):
        for n in (128, 256, 1024):
            assert bnn_layer(n, n, 1).alpha() >= 0.98

    def test_purity(self):
        assert bnn_layer(32, 16, 4) == bnn_layer(32, 16, 4)

    def test_validation(self):
        with pytest.raises(DomainError):
            bnn_layer(0, 1, 1)


class TestConvLayer:
    def test_deterministic_counts(self):
        wl = conv_layer(64, 64, 3, 32, 32, 1)
        assert wl.n_ops == 75_497_472
        assert wl.det_accesses == 36864 + 65536 + 65536
        assert wl.stoch_accesses == 0
        assert wl.alpha() == 0.0
        assert wl.ai() == pytest.approx(75_497_472 / 167_936, rel=1e-15)

    def test_stochastic_variant(self):
        wl = conv_layer(64, 64, 3, 32, 32, 1, stochastic_weights=True)
        assert wl.stoch_accesses == 36864
        assert wl.det_accesses == 167_936
        assert wl.alpha() == pytest.approx(36864 / 204_800, rel=1e-15)
        assert wl.alpha() == pytest.approx(0.18, rel=1e-12)

    def test_batch_scales_samples_not_weights(self):
        wl = conv_layer(4, 4, 3, 8, 8, 3, stochastic_weights=True)
        assert wl.stoch_accesses == 4 * 4 * 9 * 3
        assert wl.det_accesses == 4 * 4 * 9 + 4 * 64 * 3 + 4 * 64 * 3


class TestMcEstimator:
    def test_large_run(self):
        wl = mc_estimator(1_000_000, 4)
        assert wl.alpha() == pytest.approx(1_000_000 / 1_000_001, rel=1e-15)
        assert wl.n_ops == 4_000_000

    def test_minimal(self):
        assert mc_estimator(1, 1).alpha() == 0.5

    def test_ai_approaches_ops_per_sample(self):
        wl = mc_estimator(10**6, 7)
        assert wl.ai() == pytest.approx(7.0, rel=1e-5)


class TestWorkloadSpec:
    def test_zero_access_alpha_flagged(self):
        wl = WorkloadSpec(name="empty", n_ops=0, det_accesses=0, stoch_accesses=0)
        with pytest.raises(DegenerateWorkloadError, match="no accesses"):
            wl.alpha()
        with pytest.raises(DegenerateWorkloadError):
            wl.ai()

    def test_domain_bounds_for_model(self):
        for wl in (bnn_layer(16, 8, 2), conv_layer(2, 3, 3, 8, 8, 2, True),
                   mc_estimator(100, 3)):
            assert 0.0 <= wl.alpha() <= 1.0
            assert wl.ai() > 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            WorkloadSpec(name="x", n_ops=-1, det_accesses=0, stoch_accesses=0)

    @pytest.mark.parametrize("field", ["n_ops", "det_accesses", "stoch_accesses"])
    @pytest.mark.parametrize("value", [1.5, True, math.nan, math.inf, "3", -1])
    def test_counts_must_be_integers(self, field, value):
        counts = {"n_ops": 1, "det_accesses": 1, "stoch_accesses": 1, field: value}
        with pytest.raises(DomainError, match=field):
            WorkloadSpec(name="x", **counts)

    def test_integral_counts_accepted(self):
        wl = WorkloadSpec(name="x", n_ops=np.int64(6), det_accesses=2, stoch_accesses=np.int32(1))
        assert wl.ai() == 2.0


class TestTraceRecords:
    def test_address_required(self):
        with pytest.raises(DomainError):
            TraceRecord("sample", None, None, 5)

    def test_compute_without_address(self):
        TraceRecord("compute", None, None, 5)

    def test_frozen_with_slots(self):
        rec = TraceRecord("read", 0, 0, 1)
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.count = 2

    def test_count_positive(self):
        with pytest.raises(DomainError):
            TraceRecord("read", 0, 0, 0)

    def test_unknown_op(self):
        with pytest.raises(DomainError):
            TraceRecord("refresh", 0, 0, 1)

    @pytest.mark.parametrize("field", ["row", "col", "count"])
    @pytest.mark.parametrize("value", [1.5, True, math.nan, math.inf, -1, "3"])
    def test_fields_must_be_integers(self, field, value):
        fields = {"op": "read", "row": 0, "col": 0, "count": 1, field: value}
        with pytest.raises(DomainError, match=field):
            TraceRecord(**fields)

    def test_integral_fields_accepted(self):
        rec = TraceRecord("sample", np.int64(3), np.int32(0), np.int64(2))
        assert aggregate([(rec, 1)]).stoch_accesses == 2


class TestGeneratorValidation:
    @pytest.mark.parametrize("make", [
        lambda v: bnn_layer(v, 1, 1), lambda v: bnn_layer(1, 1, v),
        lambda v: conv_layer(1, 1, v, 1, 1), lambda v: conv_layer(1, 1, 1, 1, 1, batch=v),
        lambda v: mc_estimator(v, 1), lambda v: mc_estimator(1, v),
    ])
    @pytest.mark.parametrize("value", [0, -1, 1.5, True, "3"])
    def test_shape_must_be_positive_integer(self, make, value):
        with pytest.raises(DomainError):
            make(value)


class TestTraceIO:
    def test_round_trip_bnn(self, tmp_path):
        runs = list(bnn_trace(16, 8, 2))
        path = tmp_path / "bnn.csv"
        save_trace(runs, str(path))
        loaded, agg = load_trace(str(path))
        assert loaded == _expanded(runs)
        wl = bnn_layer(16, 8, 2)
        assert (agg.n_ops, agg.det_accesses, agg.stoch_accesses) == (
            wl.n_ops, wl.det_accesses, wl.stoch_accesses
        )

    def test_round_trip_conv(self, tmp_path):
        for stoch in (False, True):
            records = conv_trace(2, 3, 3, 4, 4, 2, stochastic_weights=stoch)
            path = tmp_path / "conv.csv"
            save_trace(records, str(path))
            _, agg = load_trace(str(path))
            wl = conv_layer(2, 3, 3, 4, 4, 2, stochastic_weights=stoch)
            assert (agg.n_ops, agg.det_accesses, agg.stoch_accesses) == (
                wl.n_ops, wl.det_accesses, wl.stoch_accesses
            )

    def test_mc_trace_shape(self):
        runs = mc_trace(10, 3)
        assert len(runs) == 3
        records = _expanded(runs)
        samples = [r for r in records if r.op == "sample"]
        writes = [r for r in records if r.op == "write"]
        assert len(samples) == 10 and all(r.count == 1 for r in samples)
        assert len(writes) == 1
        wl = mc_estimator(10, 3)
        agg = aggregate(runs)
        assert agg == aggregate(_grouped(records))
        assert (agg.n_ops, agg.det_accesses, agg.stoch_accesses) == (
            wl.n_ops, wl.det_accesses, wl.stoch_accesses
        )

    def test_sample_line_aggregates(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("op,row,col,count\nsample,0,0,100\n")
        records, agg = load_trace(str(path))
        assert len(records) == 1
        assert agg.stoch_accesses == 100

    def test_empty_trace_is_degenerate(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("op,row,col,count\n")
        records, agg = load_trace(str(path))
        assert records == []
        assert agg.total_accesses == 0
        with pytest.raises(DegenerateWorkloadError, match="no accesses"):
            agg.alpha()

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,row,col,count\nread,0,0,1\nsample,zero,0,5\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(str(path))
        assert info.value.line_no == 3

    def test_malformed_line_after_repeats_reports_its_own_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,row,col,count\n" + "sample,0,0,1\n" * 3 + "sample,0,0,0\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(str(path))
        assert info.value.line_no == 5

    @pytest.mark.parametrize("line", ["sample,0,0,1_000", "read,\u0663,0,1", "read,+2,0,1"])
    def test_integers_are_ascii_digits_only(self, line, tmp_path):
        # int() reads each of these (as 1000, 3 and 2); save_trace writes none of them
        path = tmp_path / "bad.csv"
        path.write_text("op,row,col,count\nread,0,0,1\n" + line + "\n", encoding="utf-8")
        with pytest.raises(TraceParseError) as info:
            load_trace(str(path))
        assert info.value.line_no == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("operation,r,c,n\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(str(path))
        assert info.value.line_no == 1

    def test_missing_address_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,row,col,count\nsample,,,5\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(str(path))
        assert info.value.line_no == 2


class TestSharedRecords:
    """Repeated trace lines share one validated record in every stage."""

    def test_mc_trace_repeats_one_record(self):
        """The draws are one run of one record, and the runs are the trace's
        own: no two neighbours are equal."""
        runs = mc_trace(1000, 4)
        assert [k for _, k in runs] == [1, 1000, 1]
        assert runs[1][0] == TraceRecord("sample", 0, 0, 1)
        assert _grouped(_expanded(runs)) == runs

    def test_load_shares_repeated_lines(self, tmp_path):
        path = tmp_path / "mc.csv"
        save_trace(mc_trace(100, 4), str(path))
        records, _ = load_trace(str(path))
        assert records == _expanded(mc_trace(100, 4))
        assert all(rec is records[1] for rec in records[1:-1])
        assert records[0] is not records[1] and records[-1] is not records[-2]

    def test_save_from_iterator_writes_same_bytes(self):
        for runs in (mc_trace(50, 3), list(bnn_trace(6, 5, 2)), conv_trace(2, 3, 3, 4, 4, 2, True)):
            listed, streamed = io.StringIO(newline=""), io.StringIO(newline="")
            save_trace(runs, listed)
            save_trace(iter(runs), streamed)
            assert streamed.getvalue() == listed.getvalue()

    def test_save_generator_of_fresh_records(self):
        """A generator's records are freed as they are written, so a new one
        may reuse a freed one's id: each still gets its own line."""
        streamed, listed = io.StringIO(newline=""), io.StringIO(newline="")
        save_trace(((TraceRecord("sample", i, 0, 1), 1) for i in range(1000)), streamed)
        save_trace([(TraceRecord("sample", i, 0, 1), 1) for i in range(1000)], listed)
        assert streamed.getvalue() == listed.getvalue()
        assert streamed.getvalue() == _line_by_line_save([TraceRecord("sample", i, 0, 1) for i in range(1000)])

    @pytest.mark.parametrize("k", [0, -2, True, 2.0])
    @pytest.mark.parametrize("call", ["save_trace", "aggregate"])
    def test_run_length_must_be_a_positive_integer(self, call, k):
        """A run stands for k >= 1 lines: a k of 0, -2 or True would write one
        line, count nothing or fail without naming the run."""
        rec = TraceRecord("sample", 0, 0, 1)
        run = {"save_trace": lambda runs: save_trace(runs, io.StringIO(newline="")), "aggregate": aggregate}[call]
        with pytest.raises(DomainError, match=re.escape(f"the k of the run of {rec!r} must be an integer >= 1, "
                                                        f"got {k!r}")):
            run([(rec, 1), (rec, k)])

    def test_memory_budget(self, tmp_path):
        """A repeated line loads as one list slot: at most 16 B per record."""
        n = 100_000
        path = tmp_path / "mc.csv"
        save_trace(mc_trace(n, 4), str(path))
        load_trace(str(path))  # first-call imports and caches
        tracemalloc.start()
        try:
            load_trace(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 16.0

    def test_writing_the_mc_trace_holds_a_block(self):
        """Building and writing the mc trace peaks at the same memory for
        1e5 and 1e6 draws, give or take one block of text."""
        peaks = []
        save_trace(mc_trace(10, 4), _Writes(keep=False))  # first-call caches
        for n in (100_000, 1_000_000):
            tracemalloc.start()
            try:
                save_trace(mc_trace(n, 4), _Writes(keep=False))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= _BLOCK_BYTES
        assert max(peaks) < 4 * _BLOCK_BYTES

    def test_writing_the_bnn_trace_holds_no_list_of_runs(self):
        """Building and writing the all-distinct bnn trace peaks at the same
        memory for 65,539 and 262,147 lines, give or take one block."""
        peaks = []
        save_trace(bnn_trace(2, 2, 1), _Writes(keep=False))  # first-call caches
        for n in (256, 512):
            tracemalloc.start()
            try:
                save_trace(bnn_trace(n, n, 1), _Writes(keep=False))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= _BLOCK_BYTES

    def test_memory_budget_distinct_lines(self, tmp_path):
        """A trace whose every line differs keeps no list of runs: loading
        the bnn trace peaks at 127.9 B per record on Python 3.11, rounded up
        to 129 B (168.4 B before records had slots)."""
        runs = bnn_trace(128, 256, 4)
        path = tmp_path / "bnn.csv"
        save_trace(runs, str(path))
        del runs
        load_trace(str(path))  # first-call imports and caches
        tracemalloc.start()
        try:
            loaded, _ = load_trace(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(loaded) <= 129.0


# ------------------------------------------------------------------------
# Run-length trace I/O against the line-by-line reader and writer
# ------------------------------------------------------------------------


def _line_by_line_load_trace(path):
    """The line-by-line parser that ``load_trace`` replaced, kept as the
    oracle: one ``csv.reader`` over the file, a compare with the last row
    parsed and an append per line, then a sum over every record."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != TRACE_CSV_HEADER:
            raise TraceParseError(1, f"expected header {','.join(TRACE_CSV_HEADER)!r}")
        last_row = last = None
        for line_no, row in enumerate(reader, start=2):
            if row == last_row:
                records.append(last)
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != 4:
                raise TraceParseError(line_no, f"expected 4 fields, got {len(row)}")
            op, row_s, col_s, count_s = (f.strip() for f in row)
            try:
                last = TraceRecord(op, parse_number(row_s) if row_s else None,
                                   parse_number(col_s) if col_s else None, parse_number(count_s))
            except DomainError as exc:
                raise TraceParseError(line_no, str(exc)) from exc
            records.append(last)
            last_row = row
    n_ops = det = stoch = 0
    for rec in records:
        if rec.op == "compute":
            n_ops += rec.count
        elif rec.op == "sample":
            stoch += rec.count
        else:
            det += rec.count
    return records, WorkloadSpec(os.path.basename(path), n_ops, det, stoch)


def _line_by_line_save(records):
    """Trace CSV text with each record formatted on its own."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(TRACE_CSV_HEADER)
    for rec in records:
        writer.writerow([rec.op, "" if rec.row is None else rec.row,
                         "" if rec.col is None else rec.col, rec.count])
    return out.getvalue()


def _outcome(load, path):
    """What ``load`` makes of ``path``: the records, the spec and where one
    record stops being shared by the next, or the parse error."""
    try:
        records, spec = load(path)
    except TraceParseError as exc:
        return "error", exc.line_no, str(exc)
    breaks = [i for i in range(1, len(records)) if records[i] is not records[i - 1]]
    return records, spec, breaks


class _Writes:
    """A text file that keeps every ``write`` call's argument, or with
    ``keep=False`` drops it."""

    def __init__(self, keep=True):
        self.calls, self.keep = [], keep

    def write(self, text):
        if self.keep:
            self.calls.append(text)


class _CountingBytes(io.BytesIO):
    """A binary stream, as ``open(..., "rb")`` gives, that keeps the size
    asked of each ``read`` and what it returned."""

    def __init__(self, text):
        super().__init__(text.encode())
        self.reads = []

    def read(self, size=-1):
        self.reads.append((size, super().read(size)))
        return self.reads[-1][1]


def _spell(value):
    """``value`` as one unquoted CSV field: mostly plain, else padded."""
    return st.sampled_from([value] * 8 + [f" {value}", f"{value}  ", f"\t{value} "])


_SMALL = st.one_of(st.integers(0, 2), st.integers(0, 300)).map(str)
_NUMBER = st.one_of(_SMALL, st.sampled_from(
    ["", " ", "x", "-1", "1.5", "1_0", "+2", "\u0663", "0x1", "1e3", '7"', "00"]))
_OP = st.one_of(st.sampled_from(TRACE_OPS), st.sampled_from(["bogus", "Sample", "", "sam ple"]))


@st.composite
def _trace_line(draw):
    """One line's text, mostly a valid record, else a blank or malformed
    one.  Small numbers recur, so equal records spelled apart meet."""
    kind = draw(st.sampled_from(["record"] * 12 + ["blank", "fields", "malformed"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t  "]))
    if kind == "fields":
        return draw(st.sampled_from(["sample,0,0", "sample,0,0,1,2", "sample", ",,,,", "read,0,0,1,"]))
    op = draw(st.sampled_from(TRACE_OPS)) if kind == "record" else draw(_OP)
    numbers = [draw(_SMALL), draw(_SMALL), draw(st.one_of(st.integers(1, 3), st.integers(1, 10**6)).map(str))]
    if kind == "malformed":
        numbers[draw(st.integers(0, 2))] = draw(_NUMBER)
    elif op == "compute" and draw(st.booleans()):
        numbers[:2] = ["", ""]
    return ",".join([draw(_spell(op))] + [draw(_spell(n)) for n in numbers])


@st.composite
def _trace_text(draw, long_run):
    """A trace CSV: runs of equal lines, some up to ``long_run`` lines, with
    mixed line ends and an optional missing last one."""
    header = draw(st.sampled_from(["op,row,col,count"] * 8 + [" op , row,col,count", "op,row,col"]))
    parts = [header + draw(st.sampled_from(["\n", "\r\n", "\r"]))]
    for _ in range(draw(st.integers(0, 10))):
        line = draw(_trace_line())
        k = draw(st.one_of(st.integers(1, 3), st.integers(1, long_run)))
        parts.append((line + draw(st.sampled_from(["\n", "\r\n", "\r"]))) * k)
    text = "".join(parts)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _small_reads_and_blocks(mp, block):
    """Reads of 1, 3 or 5 bytes, prime to a sample line of 13 or 14, so
    they end at every offset in a line, and blocks of ``block`` lines."""
    mp.setattr(workload, "_READ_BYTES", 2 * block - 1)
    mp.setattr(workload, "_BLOCK_BYTES", block * len("sample,0,0,1\r\n"))


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("traces") / "t.csv")


class TestRunLengthTraceIO:
    """``load_trace`` and ``save_trace`` work on runs of equal lines and
    give what the line-by-line parser and writer gave."""

    @settings(max_examples=120)
    @given(text=_trace_text(3 * _RUN))  # runs over several blocks
    def test_load_matches_line_by_line_parser(self, trace_file, text):
        with open(trace_file, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        assert _outcome(load_trace, trace_file) == _outcome(_line_by_line_load_trace, trace_file)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @settings(max_examples=40)
    @given(text=_trace_text(3 * 1024))
    def test_load_matches_line_by_line_parser_at_small_blocks(self, trace_file, block, text):
        """Runs of a few lines cross many of the reader's read and block edges."""
        with open(trace_file, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.MonkeyPatch.context() as mp:
            _small_reads_and_blocks(mp, block)
            assert _outcome(load_trace, trace_file) == _outcome(_line_by_line_load_trace, trace_file)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("edge", [
        "sample,0,0,1\r\nread,0,0,1\r\n",  # a CRLF pair
        "sample,0,0,1\rread,0,0,1\r\n",  # a lone CR
        "sample,0,0,1\r",  # a lone CR at the end of the file
        "\r\n\nread,0,0,1\n",  # blank lines
        "sample,0,0,x\r\n",  # a malformed line
        "sample,0,0,1",  # no final line end
        "sample,0,0,1\r\n" * 3 + "sample,0,0,1\n" * 3,  # a run of the other line end
        "read,0,0,1\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r\n",  # str.splitlines breaks, universal newlines do not
    ], ids=["crlf", "lone-cr", "final-cr", "blank", "malformed", "no-line-end", "other-end", "not-newlines"])
    def test_edge_on_every_block_offset(self, tmp_path, block, edge):
        """``edge`` after each count of copies of a line falls at every offset
        from the reader's block edges, for each line end: the reader gives the
        file's own runs of lines, and the parse the line-by-line parser's."""
        path = str(tmp_path / "t.csv")
        with pytest.MonkeyPatch.context() as mp:
            _small_reads_and_blocks(mp, block)
            for end in ("\n", "\r\n", "\r"):
                for copies in range(1, 3 * block + 4):
                    with open(path, "w", newline="") as fh:
                        fh.write("op,row,col,count\r\n" + ("sample,0,0,1" + end) * copies + edge
                                 + "sample,0,0,1\n" * 2 * block)
                    with open(path, "rb") as fh, open(path, newline="") as lines:
                        assert list(_line_runs(fh)) == _grouped(lines)
                    assert _outcome(load_trace, path) == _outcome(_line_by_line_load_trace, path)

    def test_read_ends_between_cr_and_lf(self):
        """A block read that stops inside a CRLF pair: the pair is still one
        line, unlike the copies of its LF-ended neighbour.  The reads of a
        run alone show where a block read ends; the pair's CR goes there."""
        line = "sample,0,0,1\n"
        probe = _CountingBytes(line * 3 * _RUN)
        list(_line_runs(probe))
        ends = accumulate(len(data) for _, data in probe.reads)
        copies = next(end for end in ends if end > _READ_BYTES and end % len(line) == 0) // len(line) - 1
        stream = _CountingBytes(line * copies + "sample,0,0,1\r\nread,0,0,1\r\n")
        assert list(_line_runs(stream)) == [
            (line, copies), ("sample,0,0,1\r\n", 1), ("read,0,0,1\r\n", 1)]
        assert any(size != _READ_BYTES and data.endswith(b"sample,0,0,1\r") for size, data in stream.reads)

    def test_every_long_run_takes_the_block_path(self):
        """Three long runs split by distinct lines: the bytes split into
        lines stay a read or two per run, far fewer than the 4.4 MB of the
        runs."""
        runs = []
        for i in range(3):
            runs += [(f"sample,{i},0,1\r\n", 100_000), (f"read,{i},0,1\r\n", 1)]
        stream = _CountingBytes("".join(line * k for line, k in runs))
        assert list(_line_runs(stream)) == runs
        assert sum(len(data) for size, data in stream.reads if size == _READ_BYTES) <= 3 * 2 * _READ_BYTES

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_reader_memory_is_bounded(self, tmp_path, end):
        """Reading a 1,000,000-line mc trace holds a block or two of text at
        a time, never the file: with CRLF line ends, which take the block
        path, and with CR alone, which do not, and which a reader that split
        at LF alone would hold as one line."""
        path = tmp_path / "mc.csv"
        with open(path, "w", newline="") as fh:
            fh.write(f"op,row,col,count{end}compute,,,4000000{end}" + f"sample,0,0,1{end}" * 1_000_000
                     + f"write,0,1,1{end}")
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                runs = list(_line_runs(fh))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        with open(path, newline="") as lines:
            assert runs == _grouped(lines)
        assert [k for _, k in runs] == [1, 1, 1_000_000, 1]
        assert peak < 2**20

    def test_quoted_field_may_not_span_lines(self, tmp_path):
        """Line numbers are physical lines.  The line-by-line parser read a
        quoted field on into the next line and then numbered csv rows, one
        behind the lines; ``load_trace`` stops at the line with the quote."""
        path = tmp_path / "t.csv"
        path.write_bytes(b'op,row,col,count\r\nsample,0,0,"1\r\n"\r\nsample,0,0,x\r\n')
        assert _outcome(load_trace, str(path)) == (
            "error", 2, "line 2: expected unsigned ASCII digits, got '\"1'")
        assert _outcome(_line_by_line_load_trace, str(path))[:2] == ("error", 3)

    @pytest.mark.parametrize("line, message", [
        ('"sample",0,0,1', "unknown trace op '\"sample\"'"),
        ('sample,"0",0,1', "expected unsigned ASCII digits, got '\"0\"'"),
        ('compute,"","",4', "expected unsigned ASCII digits, got '\"\"'"),
        ('"sample,0,0,1"', "expected unsigned ASCII digits, got '1\"'"),
        ('""', "expected 4 fields, got 1"),
    ], ids=["op", "row", "empty-address", "whole-line", "empty-field"])
    def test_quoted_line_is_an_error_on_its_own_line(self, tmp_path, line, message):
        """Neither the writer nor any field's syntax quotes, so a quote is
        read as part of its field and fails that field's check."""
        path = tmp_path / "t.csv"
        path.write_text(f"op,row,col,count\r\nread,0,0,1\r\n{line}\r\nread,0,0,1\r\n", newline="")
        assert _outcome(load_trace, str(path)) == ("error", 3, f"line 3: {message}")

    def test_quote_left_open_on_last_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'op,row,col,count\r\nread,0,0,1\r\nsample,0,0,"1')
        assert _outcome(load_trace, str(path))[:2] == ("error", 3)
        records, _ = _line_by_line_load_trace(str(path))  # csv closed it at end of file
        assert records[-1] == TraceRecord("sample", 0, 0, 1)

    def test_quote_left_open_before_distinct_lines(self, tmp_path):
        """The line-by-line parser read on to csv's field size limit and
        raised ``csv.Error``, which the CLI did not catch."""
        path = tmp_path / "t.csv"
        lines = "".join(f"sample,{i},0,1\r\n" for i in range(20_000))
        path.write_text('op,row,col,count\r\nread,0,0,1\r\nsample,"0,0,1\r\n' + lines, newline="")
        assert _outcome(load_trace, str(path))[:2] == ("error", 3)
        with pytest.raises(csv.Error, match="field limit"):
            _line_by_line_load_trace(str(path))

    @pytest.mark.parametrize("k", [_RUN - 1, _RUN, _RUN + 1, 3 * _RUN + 2])
    def test_save_run_lengths(self, k):
        runs = mc_trace(k, 3)
        dest = _Writes()
        save_trace(runs, dest)
        text = "".join(dest.calls)
        assert text == (f"op,row,col,count\r\ncompute,,,{3 * k}\r\n"
                        + "sample,0,0,1\r\n" * k + "write,0,1,1\r\n")
        assert text == _line_by_line_save(_expanded(runs))
        assert max(len(call) for call in dest.calls) == len("sample,0,0,1\r\n") * min(k, _RUN)

    def test_save_equal_records_that_are_not_shared(self):
        """Equal records, shared or not, written one run per record or one
        run per group of equal neighbours, give each record its line."""
        a, b, c = TraceRecord("sample", 0, 0, 1), TraceRecord("sample", 0, 0, 1), TraceRecord("read", 1, 0, 1)
        for records in ([a, b], [a, b, a, c, b, b], [c, a] + [b] * (_RUN + 1) + [a]):
            for runs in ([(rec, 1) for rec in records], _grouped(records)):
                out = io.StringIO(newline="")
                save_trace(runs, out)
                assert out.getvalue() == _line_by_line_save(records)

    def test_save_formats_integral_fields_as_csv_does(self):
        records = [TraceRecord("sample", np.int64(3), np.int32(0), np.int64(2)),
                   TraceRecord("compute", None, None, 2**70), TraceRecord("read", 10**12, 7, 1)]
        out = io.StringIO(newline="")
        save_trace([(rec, 2) for rec in records], out)
        assert out.getvalue() == _line_by_line_save(_expanded([(rec, 2) for rec in records]))

    @settings(max_examples=60)
    @given(runs=st.lists(st.tuples(
        st.sampled_from(TRACE_OPS), st.integers(0, 3), st.integers(1, 3),
        st.one_of(st.integers(1, 3), st.integers(_RUN - 2, _RUN + 2), st.integers(1, 3 * _RUN)),
        st.booleans()), max_size=8))
    def test_save_and_aggregate_match_line_by_line(self, runs):
        """Runs written as given equal their records written line by line:
        a run of one shared record or ``k`` runs of one fresh record each,
        with equal neighbours left unmerged."""
        given_runs = []
        for op, addr, count, k, shared in runs:
            make = lambda: TraceRecord(op, addr, addr, count)  # noqa: E731
            given_runs += [(make(), k)] if shared else [(make(), 1) for _ in range(k)]
        records = _expanded(given_runs)
        out = io.StringIO(newline="")
        save_trace(iter(given_runs), out)
        assert out.getvalue() == _line_by_line_save(records)
        expected = {op: sum(r.count for r in records if r.op == op) for op in TRACE_OPS}
        spec = aggregate(iter(given_runs))
        assert (spec.n_ops, spec.det_accesses, spec.stoch_accesses) == (
            expected["compute"], expected["read"] + expected["write"], expected["sample"])
