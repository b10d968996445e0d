"""Workload generators and the access-trace format.

A workload is three counts: operations, deterministic element accesses and
stochastic samples; the probabilistic data ratio and arithmetic intensity
fall out as ratios.  Generators are pure; traces round-trip through CSV
with header ``op,row,col,count`` (compute rows leave row/col empty).

A trace repeats one access many times (a Monte Carlo trace is one
``sample,0,0,1`` line per draw), so each stage pays once per distinct line:
repeated lines share one validated ``TraceRecord`` (records are frozen), are
formatted once by ``save_trace`` and parsed once by ``load_trace``.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, TextIO, Tuple, Union

from .errors import DegenerateWorkloadError, DomainError, TraceParseError, parse_number, require_int

TRACE_OPS = ("compute", "read", "write", "sample")
TRACE_CSV_HEADER = ("op", "row", "col", "count")


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation and access counts of one workload."""

    name: str
    n_ops: int
    det_accesses: int
    stoch_accesses: int

    def __post_init__(self) -> None:
        require_int("n_ops", self.n_ops, 0)
        require_int("det_accesses", self.det_accesses, 0)
        require_int("stoch_accesses", self.stoch_accesses, 0)

    @property
    def total_accesses(self) -> int:
        return self.det_accesses + self.stoch_accesses

    def alpha(self) -> float:
        """Stochastic fraction of all accesses."""
        if self.total_accesses == 0:
            raise DegenerateWorkloadError(f"workload {self.name!r} has no accesses")
        return self.stoch_accesses / self.total_accesses

    def ai(self) -> float:
        """Operations per access (deterministic + stochastic)."""
        if self.total_accesses == 0:
            raise DegenerateWorkloadError(f"workload {self.name!r} has no accesses")
        return self.n_ops / self.total_accesses


@dataclass(frozen=True)
class TraceRecord:
    op: str
    row: Optional[int]
    col: Optional[int]
    count: int

    def __post_init__(self) -> None:
        if self.op not in TRACE_OPS:
            raise DomainError(f"unknown trace op {self.op!r}")
        require_int("count", self.count, 1)
        if self.row is not None:
            require_int("row", self.row, 0)
        if self.col is not None:
            require_int("col", self.col, 0)
        if self.op != "compute" and (self.row is None or self.col is None):
            raise DomainError(f"{self.op!r} records need an address")


# ------------------------------------------------------------------------
# Generators
# ------------------------------------------------------------------------


def bnn_layer(n_in: int, n_out: int, batch: int = 1) -> WorkloadSpec:
    """Fully-connected layer with per-use weight sampling.

    Every weight is sampled for every use (one sample per MAC input), so
    stochastic accesses are n_in*n_out*batch while the deterministic side is
    just the activations in and out; alpha approaches 1 as the layer grows.
    """
    for name, value in (("n_in", n_in), ("n_out", n_out), ("batch", batch)):
        require_int(name, value, 1)
    return WorkloadSpec(
        name=f"bnn_{n_in}x{n_out}_b{batch}",
        n_ops=2 * n_in * n_out * batch,
        det_accesses=(n_in + n_out) * batch,
        stoch_accesses=n_in * n_out * batch,
    )


def conv_layer(
    c_in: int,
    c_out: int,
    k: int,
    h: int,
    w: int,
    batch: int = 1,
    stochastic_weights: bool = False,
) -> WorkloadSpec:
    """Convolution with full weight reuse (weights fetched once).

    The deterministic variant has alpha = 0 and high arithmetic intensity.
    With ``stochastic_weights`` each weight is additionally sampled once per
    batch element, adding c_in*c_out*k^2*batch stochastic accesses on top of
    the unchanged deterministic traffic.
    """
    for name, value in (("c_in", c_in), ("c_out", c_out), ("k", k), ("h", h), ("w", w),
                        ("batch", batch)):
        require_int(name, value, 1)
    weights = c_in * c_out * k * k
    det = weights + c_in * h * w * batch + c_out * h * w * batch
    stoch = weights * batch if stochastic_weights else 0
    tag = "stoch" if stochastic_weights else "det"
    return WorkloadSpec(
        name=f"conv_{c_in}x{c_out}_k{k}_{h}x{w}_b{batch}_{tag}",
        n_ops=2 * c_in * c_out * k * k * h * w * batch,
        det_accesses=det,
        stoch_accesses=stoch,
    )


def mc_estimator(n_samples: int, ops_per_sample: int) -> WorkloadSpec:
    """Monte Carlo estimator: n draws, register-resident accumulation,
    a single result writeback."""
    require_int("n_samples", n_samples, 1)
    require_int("ops_per_sample", ops_per_sample, 1)
    return WorkloadSpec(
        name=f"mc_{n_samples}x{ops_per_sample}",
        n_ops=n_samples * ops_per_sample,
        det_accesses=1,
        stoch_accesses=n_samples,
    )


# ------------------------------------------------------------------------
# Trace expansion (aggregates match the generators exactly)
# ------------------------------------------------------------------------


def bnn_trace(n_in: int, n_out: int, batch: int = 1) -> List[TraceRecord]:
    spec = bnn_layer(n_in, n_out, batch)
    records = [TraceRecord("compute", None, None, spec.n_ops)]
    records.append(TraceRecord("read", 0, 0, n_in * batch))
    records.append(TraceRecord("write", 0, 0, n_out * batch))
    for i in range(n_in):
        for j in range(n_out):
            records.append(TraceRecord("sample", i, j, batch))
    return records


def conv_trace(c_in: int, c_out: int, k: int, h: int, w: int, batch: int = 1,
               stochastic_weights: bool = False) -> List[TraceRecord]:
    spec = conv_layer(c_in, c_out, k, h, w, batch, stochastic_weights)
    weights = c_in * c_out * k * k
    records = [
        TraceRecord("compute", None, None, spec.n_ops),
        TraceRecord("read", 0, 0, weights),
        TraceRecord("read", 0, 1, c_in * h * w * batch),
        TraceRecord("write", 0, 2, c_out * h * w * batch),
    ]
    if stochastic_weights:
        records.append(TraceRecord("sample", 0, 0, weights * batch))
    return records


def mc_trace(n_samples: int, ops_per_sample: int) -> List[TraceRecord]:
    """One compute record, ``n_samples`` draws sharing one record, one write."""
    spec = mc_estimator(n_samples, ops_per_sample)
    records = [TraceRecord("sample", 0, 0, 1)] * (n_samples + 2)
    records[0] = TraceRecord("compute", None, None, spec.n_ops)
    records[-1] = TraceRecord("write", 0, 1, 1)
    return records


def aggregate(records: List[TraceRecord], name: str = "trace") -> WorkloadSpec:
    """Column sums of a record list as a WorkloadSpec."""
    n_ops = det = stoch = 0
    for rec in records:
        if rec.op == "compute":
            n_ops += rec.count
        elif rec.op == "sample":
            stoch += rec.count
        else:
            det += rec.count
    return WorkloadSpec(name=name, n_ops=n_ops, det_accesses=det, stoch_accesses=stoch)


# ------------------------------------------------------------------------
# Trace CSV I/O
# ------------------------------------------------------------------------


class _Echo:
    """A file whose ``write`` returns its argument, so a csv writer on it
    returns each formatted line."""

    def write(self, line: str) -> str:
        return line


def save_trace(records: Iterable[TraceRecord], dest: Union[str, TextIO]) -> None:
    """Write ``records`` as trace CSV to the path or open text file ``dest``.

    Lines end in CRLF, the csv module's dialect.  A file object writes the
    same bytes as a path when it does not translate line ends, as with
    ``open(..., newline="")`` or ``sys.stdout`` on POSIX.  A record that is
    the very object written just before reuses that line unformatted, so a
    trace whose repeats share one record formats each distinct line once.
    """
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            save_trace(records, fh)
        return
    fmt = csv.writer(_Echo())
    dest.write(fmt.writerow(TRACE_CSV_HEADER))
    last = line = None
    for rec in records:
        if rec is not last:
            line = fmt.writerow([
                rec.op,
                "" if rec.row is None else rec.row,
                "" if rec.col is None else rec.col,
                rec.count,
            ])
            last = rec
        dest.write(line)


def load_trace(path: str) -> Tuple[List[TraceRecord], WorkloadSpec]:
    """Parse a trace CSV; malformed lines report their 1-based line number.

    A line equal to the line before it is not parsed again: it shares the
    record validated for that line.  The workload is named by the file's
    base name, so one trace gives one workload however its path is spelled.
    """
    records: List[TraceRecord] = []
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
            try:  # as save_trace writes them: digits, or a compute row's empty address
                last = TraceRecord(op, parse_number(row_s) if row_s else None,
                                   parse_number(col_s) if col_s else None, parse_number(count_s))
            except DomainError as exc:
                raise TraceParseError(line_no, str(exc)) from exc
            records.append(last)
            last_row = row
    return records, aggregate(records, name=os.path.basename(path))
