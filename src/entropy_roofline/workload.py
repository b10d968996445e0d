"""Workload generators and the access-trace format.

A workload is three counts: operations, deterministic element accesses and
stochastic samples; the probabilistic data ratio and arithmetic intensity
fall out as ratios.  Generators are pure; traces round-trip through CSV
with header ``op,row,col,count`` (compute rows leave row/col empty).

A trace repeats one access many times (a Monte Carlo trace is one
``sample,0,0,1`` line per draw), so every stage works on runs of equal lines.
The trace generators give ``(record, k)`` runs, which ``save_trace`` formats
once each and ``aggregate`` sums once each: the mc and conv traces as a list
of a few runs, the bnn trace, whose every line differs, as an iterator.  The
reader splits small reads of bytes into lines until a line repeats; the rest
of that run is read ``_BLOCK_BYTES`` of copies at a time, each block checked
with one compare, so a million-line run costs about two hundred reads, and
its records share one frozen ``TraceRecord``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, repeat
from typing import BinaryIO, Iterable, Iterator, List, Optional, TextIO, Tuple, Union

from .errors import DegenerateWorkloadError, DomainError, TraceParseError, parse_number, require_bool, require_int

TRACE_OPS = ("compute", "read", "write", "sample")
TRACE_CSV_HEADER = ("op", "row", "col", "count")
_SPEC_FIELD = {"compute": "n_ops", "read": "det_accesses", "write": "det_accesses",
               "sample": "stoch_accesses"}  # the WorkloadSpec sum each op adds to
_BLOCK_BYTES = 1 << 16  # a long run's copies written, or compared, at once: under glibc's 128 KiB mmap threshold
_READ_BYTES = 1 << 13  # a read split into lines: small, so distinct lines are held a few at a time


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


@dataclass(frozen=True, slots=True)
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


Run = Tuple[TraceRecord, int]  # a record and the k >= 1 equal lines in a row it stands for


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
    require_bool("stochastic_weights", stochastic_weights)
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
# Trace runs (aggregates match the generators exactly)
# ------------------------------------------------------------------------


def bnn_trace(n_in: int, n_out: int, batch: int = 1) -> Iterator[Run]:
    """Three head runs, then one sample run per weight, each made as it is
    read, so no list of runs is held; the shape is checked at the call."""
    spec = bnn_layer(n_in, n_out, batch)
    head = [(TraceRecord("compute", None, None, spec.n_ops), 1), (TraceRecord("read", 0, 0, n_in * batch), 1),
            (TraceRecord("write", 0, 0, n_out * batch), 1)]
    return chain(head, ((TraceRecord("sample", i, j, batch), 1) for i in range(n_in) for j in range(n_out)))


def conv_trace(c_in: int, c_out: int, k: int, h: int, w: int, batch: int = 1,
               stochastic_weights: bool = False) -> List[Run]:
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
    return [(rec, 1) for rec in records]


def mc_trace(n_samples: int, ops_per_sample: int) -> List[Run]:
    """One compute line, ``n_samples`` draws as one run, one write."""
    spec = mc_estimator(n_samples, ops_per_sample)
    return [(TraceRecord("compute", None, None, spec.n_ops), 1), (TraceRecord("sample", 0, 0, 1), n_samples),
            (TraceRecord("write", 0, 1, 1), 1)]


def _line_runs(fh: BinaryIO) -> Iterator[Tuple[str, int]]:
    """``(line, k)`` for each run of ``k`` equal lines of the binary file
    ``fh``: the runs that iterating it in text mode with ``newline=""`` gives,
    each line decoded once from UTF-8 (never a CR or LF inside a character),
    a byte that does not decode kept as a lone surrogate.

    ``bytes.splitlines`` splits each read at ``\\r\\n``, ``\\r`` and ``\\n`` alone;
    the last piece, a partial line or a CR whose LF may come next, joins the
    next read.  A line that ends in ``\\n`` and repeats up to the end of a read
    is then compared with the bytes after it a block at a time, once per read.
    """
    last, k, rest = None, 0, b""
    while True:
        data = fh.read(_READ_BYTES)
        lines = (rest + data).splitlines(keepends=True)
        rest = lines.pop() if data else b""
        for line in lines:
            if line != last:
                if k:
                    yield last.decode("utf-8", "surrogateescape"), k
                last, k = line, 1
            else:
                k += 1
        del lines  # before the next read's pieces are made
        if not data:
            break
        if k > 1 and last.endswith(b"\n"):  # a line end is whole: the copies after it are lines
            copies, rest = _block_copies(fh, last, rest)
            k += copies
    if k:
        yield last.decode("utf-8", "surrogateescape"), k


def _block_copies(fh: BinaryIO, line: bytes, head: bytes) -> Tuple[int, bytes]:
    """The copies of ``line`` that ``head``, then ``fh``, hold next, and the bytes after them."""
    block = line * max(_BLOCK_BYTES // len(line), 1)
    copies, text = 0, head + fh.read(max(len(block) - len(head), 0))
    while text == block:
        copies += len(block) // len(line)
        text = fh.read(len(block))
    view = memoryview(block)  # prefixes without copies
    lo, hi = 0, min(len(text), len(block)) // len(line)  # whole copies at the head of text, by bisection
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if text.startswith(view[:mid * len(line)]) else (lo, mid - 1)
    return copies + lo, text[lo * len(line):]


def aggregate(runs: Iterable[Run], name: str = "trace") -> WorkloadSpec:
    """The WorkloadSpec of ``(record, k)`` runs: each op's counts, ``k`` times."""
    totals = dict.fromkeys(_SPEC_FIELD.values(), 0)
    for rec, k in runs:
        if not (k.__class__ is int and k >= 1):
            require_int(f"the k of the run of {rec!r}", k, 1)
        totals[_SPEC_FIELD[rec.op]] += rec.count * k
    return WorkloadSpec(name, **totals)


# ------------------------------------------------------------------------
# Trace CSV I/O
# ------------------------------------------------------------------------


def save_trace(runs: Iterable[Run], dest: Union[str, TextIO]) -> None:
    """Write ``(record, k)`` runs, ``k`` >= 1 lines of each record, as trace
    CSV to the path or open text file ``dest``.

    Lines end in CRLF and no field is quoted: ops are names, the rest
    digits.  A file object writes the same bytes as a path when it does not
    translate line ends, as with ``open(..., newline="")`` or ``sys.stdout``
    on POSIX.  A run is formatted once, and a long one written a block of
    ``_BLOCK_BYTES`` at a time; runs are written as given, so equal
    neighbours give the same bytes as one run of their summed length.
    """
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            save_trace(runs, fh)
        return
    dest.write(",".join(TRACE_CSV_HEADER) + "\r\n")
    for rec, k in runs:
        if not (k.__class__ is int and k >= 1):
            require_int(f"the k of the run of {rec!r}", k, 1)
        line = "{},{},{},{}\r\n".format(rec.op, "" if rec.row is None else rec.row,
                                        "" if rec.col is None else rec.col, rec.count)
        if len(line) * k > _BLOCK_BYTES:  # ASCII: a character is a byte
            n = max(_BLOCK_BYTES // len(line), 1)
            block = line * n
            while k > n:
                dest.write(block)
                k -= n
        dest.write(line * k)


def load_trace(path: str) -> Tuple[List[TraceRecord], WorkloadSpec]:
    """Parse a trace CSV; malformed lines report their 1-based line number.

    Each physical line is one row of comma-separated fields, as
    ``save_trace`` writes it; fields are stripped, never unquoted, so a
    quoted field fails its own check on its own line.  Blank lines are
    skipped.  A run of equal lines, and the next lines whose fields equal
    its, share one record, read as one (``_line_runs``).  The workload is
    named by the file's base name, so one trace gives one workload however
    its path is spelled.  A byte that is not UTF-8 is kept as a lone
    surrogate, so it fails its own field's check on its own line.
    """
    records: List[TraceRecord] = []

    def runs() -> Iterator[Tuple[TraceRecord, int]]:  # keeps each run's records as it passes
        with open(path, "rb", buffering=0) as fh:  # _line_runs reads in blocks of its own
            lines = _line_runs(fh)
            header, k = next(lines, ("", 1))
            if tuple(h.strip() for h in header.rstrip("\r\n").split(",")) != TRACE_CSV_HEADER:
                raise TraceParseError(1, f"expected header {','.join(TRACE_CSV_HEADER)!r}")
            if k > 1:  # the header's copies are lines to parse
                lines = chain([(header, k - 1)], lines)
            line_no, last_row, last = 2, None, None
            for line, k in lines:
                row = line.rstrip("\r\n").split(",")
                if row != last_row:
                    if not line.strip():
                        line_no += k
                        continue  # blank lines
                    if len(row) != 4:
                        raise TraceParseError(line_no, f"expected 4 fields, got {len(row)}")
                    op, row_s, col_s, count_s = map(str.strip, row)
                    try:  # as save_trace writes them: digits, or a compute row's empty address
                        last = TraceRecord(op, parse_number(row_s) if row_s else None,
                                           parse_number(col_s) if col_s else None, parse_number(count_s))
                    except DomainError as exc:
                        raise TraceParseError(line_no, str(exc)) from exc
                    last_row = row
                if k == 1:  # an all-distinct trace's every line: append is the cheaper call
                    records.append(last)
                else:
                    records.extend(repeat(last, k))
                yield last, k
                line_no += k

    return records, aggregate(runs(), os.path.basename(path))
