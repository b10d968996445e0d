"""Tests for workload generators and the trace format."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from entropy_roofline.errors import (
    DegenerateWorkloadError,
    DomainError,
    TraceParseError,
)
from entropy_roofline.workload import (
    TraceRecord,
    WorkloadSpec,
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
        assert aggregate([rec]).stoch_accesses == 2


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
        records = bnn_trace(16, 8, 2)
        path = tmp_path / "bnn.csv"
        save_trace(records, str(path))
        loaded, agg = load_trace(str(path))
        assert loaded == records
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
        records = mc_trace(10, 3)
        samples = [r for r in records if r.op == "sample"]
        writes = [r for r in records if r.op == "write"]
        assert len(samples) == 10 and all(r.count == 1 for r in samples)
        assert len(writes) == 1
        wl = mc_estimator(10, 3)
        agg = aggregate(records)
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
        samples = mc_trace(1000, 4)[1:-1]
        assert all(rec is samples[0] for rec in samples)

    def test_load_shares_repeated_lines(self, tmp_path):
        path = tmp_path / "mc.csv"
        save_trace(mc_trace(100, 4), str(path))
        records, _ = load_trace(str(path))
        assert records == mc_trace(100, 4)
        assert all(rec is records[1] for rec in records[1:-1])
        assert records[0] is not records[1] and records[-1] is not records[-2]

    def test_save_from_iterator_writes_same_bytes(self):
        for records in (mc_trace(50, 3), bnn_trace(6, 5, 2), conv_trace(2, 3, 3, 4, 4, 2, True)):
            listed, streamed = io.StringIO(newline=""), io.StringIO(newline="")
            save_trace(records, listed)
            save_trace(iter(records), streamed)
            assert streamed.getvalue() == listed.getvalue()

    def test_save_generator_of_fresh_records(self):
        """A generator's records are freed as they are written, so a new one
        may reuse a freed one's id: each still gets its own line."""
        streamed, listed = io.StringIO(newline=""), io.StringIO(newline="")
        save_trace((TraceRecord("sample", i, 0, 1) for i in range(1000)), streamed)
        save_trace([TraceRecord("sample", i, 0, 1) for i in range(1000)], listed)
        assert streamed.getvalue() == listed.getvalue()

    def test_memory_budget(self, tmp_path):
        """A repeated record costs one list slot: at most 16 B per record to
        build the mc trace and to load it back."""
        n = 100_000
        path = tmp_path / "mc.csv"
        save_trace(mc_trace(n, 4), str(path))
        load_trace(str(path))  # first-call imports and caches
        for stage in (lambda: mc_trace(n, 4), lambda: load_trace(str(path))):
            tracemalloc.start()
            try:
                stage()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / n <= 16.0
