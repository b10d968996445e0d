"""Unified probabilistic memory: arrays whose cells hold values or distributions.

A cell stores a distribution; a plain number is the zero-variance limit
(stored as a point mass), so READ, SAMPLE, READ_DISTRIBUTION and
SET_VARIANCE form one pathway over both deterministic and stochastic data.

Four backend models differ only in cost, latency, endurance and variance
programmability -- never in sample values, which are a pure function of the
cell and the entropy stream:

* von_neumann            — samples come from a separate RNG pipeline; each
  draw ships transport bytes across the shared bus and pays the shaping
  pipeline's arithmetic.
* coupled_pcim           — the storage device itself generates the sample;
  sigma is device-governed (sigma_dev = sigma0 * (1 + gamma * |mu|)) and only
  tunable within a multiplicative window; write-based sampling wears the
  cell once per draw.
* decoupled_near_memory  — parameters are read (mu, sigma), entropy is made
  in peripheral circuits and written back (writeback bytes per sample).
* decoupled_in_memory    — as above but entropy generation sits in the
  access path with ``parallelism`` lanes and no writeback.

What a draw costs on each kind is defined once, by ``BackendConfig``'s
per-draw answers (shaping ops, side bytes, parameter read, wear, lanes, raw
entropy rate); ``PMemArray`` and the simulator read them and never branch on
the kind.  At the array's default 32 bits per raw draw, the one charge they
price differently is a decoupled draw's parameter read, which the simulator
does not charge.

Per-operation charges land in a CostReport; per-cell write counts model
endurance.  Arrays are single-writer: mutation requires exclusive access.

Cells are stored as a structure of arrays: a family code and the ``mu``,
``sigma`` and ``p`` fields of the cell's DistributionSpec, each a rows x cols
numpy array, so a spec read back is equal to the one written on every field.
``batch_sample`` is one vectorized pass over those arrays, bit-identical to
sequential SAMPLE calls: the same values, the same CostReport fields, endurance
map and stream position, with all the batch's entropy words drawn as one
block.  An address is an in-bounds pair of integers (numpy integer types
included); any other address raises AddressError before anything is charged,
in every primitive and anywhere in a batch.
"""

from __future__ import annotations

import csv
import math
import numbers
import operator
from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .distribution_shaping import ShapingPipelineSpec
from .entropy_sources import EntropyStream
from .errors import AddressError, CellTypeError, DomainError, VarianceRangeError

FAMILY_GAUSSIAN = "gaussian"
FAMILY_BERNOULLI = "bernoulli"
FAMILY_POINT_MASS = "point_mass"

KIND_VON_NEUMANN = "von_neumann"
KIND_COUPLED_PCIM = "coupled_pcim"
KIND_DECOUPLED_NEAR_MEMORY = "decoupled_near_memory"
KIND_DECOUPLED_IN_MEMORY = "decoupled_in_memory"

BACKEND_KINDS = (
    KIND_VON_NEUMANN,
    KIND_COUPLED_PCIM,
    KIND_DECOUPLED_NEAR_MEMORY,
    KIND_DECOUPLED_IN_MEMORY,
)

# A cell's stored family code is its index here.
_FAMILIES = (FAMILY_GAUSSIAN, FAMILY_BERNOULLI, FAMILY_POINT_MASS)
_GAUSSIAN = _FAMILIES.index(FAMILY_GAUSSIAN)
_BERNOULLI = _FAMILIES.index(FAMILY_BERNOULLI)


def _is_finite(x) -> bool:
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def _fold(total: float, charges: np.ndarray) -> float:
    """``total`` after ``total += charge`` for each charge in order.

    ``np.add.accumulate`` is a sequential left fold, so this equals a loop of
    scalar charges bit for bit; ``np.sum`` (pairwise) and ``count * charge``
    do not.
    """
    return float(np.add.accumulate(np.concatenate(([total], charges.ravel())))[-1])


@dataclass(frozen=True)
class DistributionSpec:
    """What a cell returns when sampled: gaussian, bernoulli or point mass.

    Every field must be finite.  A gaussian with sigma == 0 canonicalizes
    to a point mass on construction; a bernoulli stores its mean in ``mu``
    (= p).
    """

    family: str
    mu: float = 0.0
    sigma: float = 0.0
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown distribution family {self.family!r}")
        for name in ("mu", "sigma", "p"):
            if not _is_finite(getattr(self, name)):
                raise DomainError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.family == FAMILY_GAUSSIAN:
            if self.sigma < 0.0:
                raise DomainError(f"sigma must be >= 0, got {self.sigma!r}")
            if self.sigma == 0.0:
                object.__setattr__(self, "family", FAMILY_POINT_MASS)
        if self.family == FAMILY_BERNOULLI:
            if not (0.0 <= self.p <= 1.0):
                raise DomainError(f"p must lie in [0, 1], got {self.p!r}")
            object.__setattr__(self, "mu", self.p)
        if self.family == FAMILY_POINT_MASS:
            object.__setattr__(self, "sigma", 0.0)

    @classmethod
    def gaussian(cls, mu: float, sigma: float) -> "DistributionSpec":
        return cls(family=FAMILY_GAUSSIAN, mu=mu, sigma=sigma)

    @classmethod
    def bernoulli(cls, p: float) -> "DistributionSpec":
        return cls(family=FAMILY_BERNOULLI, p=p)

    @classmethod
    def point_mass(cls, mu: float) -> "DistributionSpec":
        return cls(family=FAMILY_POINT_MASS, mu=mu)

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def sigma_or_p(self) -> float:
        return self.p if self.family == FAMILY_BERNOULLI else self.sigma

    @property
    def consumes_entropy(self) -> bool:
        """Whether sampling this cell draws from the entropy stream."""
        if self.family == FAMILY_GAUSSIAN:
            return self.sigma > 0.0
        if self.family == FAMILY_BERNOULLI:
            return 0.0 < self.p < 1.0
        return False

    @property
    def parameter_elements(self) -> int:
        """Stored parameter words: (mu, sigma) for gaussian, else one."""
        return 2 if self.family == FAMILY_GAUSSIAN else 1


# A cell is written either as a raw number (deterministic value) or as a
# DistributionSpec; raw numbers canonicalize to point masses.
CellState = Union[float, int, DistributionSpec]


def _canonical(state: CellState) -> DistributionSpec:
    if isinstance(state, DistributionSpec):
        return state
    if isinstance(state, (int, float)):
        return DistributionSpec.point_mass(float(state))
    raise CellTypeError(f"cell state must be a number or DistributionSpec, got {type(state).__name__}")


@dataclass
class CostReport:
    """Cumulative operation charges of one array; fields only ever grow."""

    total_reads: int = 0
    total_writes: int = 0
    total_samples: int = 0
    bytes_moved: float = 0.0
    entropy_bits_consumed: int = 0
    energy_pj: float = 0.0
    shaping_ops: int = 0

    def snapshot(self) -> "CostReport":
        return replace(self)

    def to_dict(self) -> Dict[str, float]:
        return {
            "total_reads": self.total_reads,
            "total_writes": self.total_writes,
            "total_samples": self.total_samples,
            "bytes_moved": self.bytes_moved,
            "entropy_bits_consumed": self.entropy_bits_consumed,
            "energy_pj": self.energy_pj,
            "shaping_ops": self.shaping_ops,
        }


@dataclass(frozen=True)
class BackendConfig:
    """Backend kind, its cost/constraint parameters and what a draw costs
    on it (see module docstring)."""

    kind: str
    # shared cost knobs
    rng_rate: float = 1e9  # raw samples/second of the entropy path
    read_energy_pj: float = 1.0
    write_energy_pj: float = 10.0
    sample_energy_pj: float = 5.0
    latency_cycles: int = 1
    # von_neumann
    transport_bytes_per_sample: float = 4.0
    shaping: Optional[ShapingPipelineSpec] = None
    # coupled_pcim device model: sigma_dev(mu) = sigma0 * (1 + gamma * |mu|)
    sigma0: float = 0.1
    gamma: float = 0.0
    sigma_min_frac: float = 0.5
    sigma_max_frac: float = 2.0
    write_based_sampling: bool = False
    # decoupled_near_memory
    writeback_bytes_per_sample: float = 4.0
    # decoupled_in_memory
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise DomainError(f"unknown backend kind {self.kind!r}")
        # A bool is no number here, though True would pass as 1.  The checks
        # are plain comparisons (NaN fails them) because sweeps build a config
        # per point; the Integral ABC is only asked about a non-int.
        for name in ("rng_rate", "read_energy_pj", "write_energy_pj", "sample_energy_pj", "sigma0"):
            value = getattr(self, name)
            if value.__class__ is bool or not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be a positive finite number, got {value!r}")
        for name in ("transport_bytes_per_sample", "writeback_bytes_per_sample", "gamma",
                     "sigma_min_frac", "sigma_max_frac"):
            value = getattr(self, name)
            if value.__class__ is bool or not 0.0 <= value < math.inf:
                raise DomainError(f"{name} must be a finite number >= 0, got {value!r}")
        for name in ("latency_cycles", "parallelism"):
            value = getattr(self, name)
            if not (value.__class__ is int or isinstance(value, numbers.Integral)
                    and value.__class__ is not bool) or value < 1:
                raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
        if not (0.0 < self.sigma_min_frac <= 1.0 <= self.sigma_max_frac):
            raise DomainError(
                "need 0 < sigma_min_frac <= 1 <= sigma_max_frac, got "
                f"[{self.sigma_min_frac!r}, {self.sigma_max_frac!r}]"
            )

    # -- constructors per kind ---------------------------------------------

    @classmethod
    def von_neumann(cls, rng_rate: float = 1e9, transport_bytes_per_sample: float = 4.0,
                    shaping: Optional[ShapingPipelineSpec] = None, **kw) -> "BackendConfig":
        if shaping is None:
            shaping = ShapingPipelineSpec(method="box_muller")
        return cls(kind=KIND_VON_NEUMANN, rng_rate=rng_rate,
                   transport_bytes_per_sample=transport_bytes_per_sample,
                   shaping=shaping, **kw)

    @classmethod
    def coupled_pcim(cls, sigma0: float = 0.1, gamma: float = 0.0,
                     sigma_min_frac: float = 0.5, sigma_max_frac: float = 2.0,
                     write_based_sampling: bool = False, **kw) -> "BackendConfig":
        return cls(kind=KIND_COUPLED_PCIM, sigma0=sigma0, gamma=gamma,
                   sigma_min_frac=sigma_min_frac, sigma_max_frac=sigma_max_frac,
                   write_based_sampling=write_based_sampling, **kw)

    @classmethod
    def decoupled_near_memory(cls, rng_rate: float = 1e9,
                              writeback_bytes_per_sample: float = 4.0, **kw) -> "BackendConfig":
        return cls(kind=KIND_DECOUPLED_NEAR_MEMORY, rng_rate=rng_rate,
                   writeback_bytes_per_sample=writeback_bytes_per_sample, **kw)

    @classmethod
    def decoupled_in_memory(cls, rng_rate: float = 1e9, parallelism: int = 1, **kw) -> "BackendConfig":
        return cls(kind=KIND_DECOUPLED_IN_MEMORY, rng_rate=rng_rate,
                   parallelism=parallelism, **kw)

    @classmethod
    def for_kind(cls, kind: str, base: "BackendConfig") -> "BackendConfig":
        """``base`` switched to backend ``kind``: ``base`` itself when the kind
        matches, else the kind's defaults with ``base.rng_rate`` carried over
        (coupled_pcim samples at the data rate, so it takes none), for
        decoupled_in_memory ``base.parallelism`` and for von_neumann
        ``base.shaping`` (its default pipeline when that is None)."""
        if kind == base.kind:
            return base
        if kind == KIND_COUPLED_PCIM:
            return cls.coupled_pcim()
        if kind == KIND_DECOUPLED_IN_MEMORY:
            return cls.decoupled_in_memory(rng_rate=base.rng_rate, parallelism=base.parallelism)
        if kind == KIND_VON_NEUMANN:
            return cls.von_neumann(rng_rate=base.rng_rate, shaping=base.shaping)
        return cls(kind=kind, rng_rate=base.rng_rate)

    # -- coupled device model ------------------------------------------------

    def sigma_dev(self, mu: float) -> float:
        """Native device sigma at mean level ``mu`` (coupled backends)."""
        return self.sigma0 * (1.0 + self.gamma * abs(mu))

    def variance_window(self, mu: float) -> Tuple[float, float]:
        """Achievable [lo, hi] sigma window around sigma_dev(mu)."""
        dev = self.sigma_dev(mu)
        return (self.sigma_min_frac * dev, self.sigma_max_frac * dev)

    # -- what one stochastic draw costs ----------------------------------------

    @property
    def shaping_ops_per_sample(self) -> int:
        """Shaping arithmetic per draw; only the von Neumann RNG pipeline has one."""
        if self.kind == KIND_VON_NEUMANN and self.shaping is not None:
            return self.shaping.ops_per_sample
        return 0

    @property
    def side_bytes_per_sample(self) -> float:
        """Bytes a draw moves besides a parameter read: transport or write-back."""
        if self.kind == KIND_VON_NEUMANN:
            return self.transport_bytes_per_sample
        if self.kind == KIND_DECOUPLED_NEAR_MEMORY:
            return self.writeback_bytes_per_sample
        return 0.0

    @property
    def reads_parameters_per_draw(self) -> bool:
        """Whether a draw reads the cell's stored parameters (the decoupled kinds)."""
        return self.kind in (KIND_DECOUPLED_NEAR_MEMORY, KIND_DECOUPLED_IN_MEMORY)

    @property
    def wears_cell_per_draw(self) -> bool:
        """Whether a draw counts one write on its cell (write-based coupled sampling)."""
        return self.kind == KIND_COUPLED_PCIM and self.write_based_sampling

    def sampling_lanes(self, row_width: int) -> int:
        """Draws served at once: a row on coupled arrays, ``parallelism`` in-memory, else 1."""
        if self.kind == KIND_COUPLED_PCIM:
            return row_width
        if self.kind == KIND_DECOUPLED_IN_MEMORY:
            return self.parallelism
        return 1

    def raw_entropy_rate(self, beta_data: float) -> float:
        """Draws/second of the entropy path before side traffic is folded in."""
        if self.kind == KIND_COUPLED_PCIM:
            return beta_data
        if self.kind == KIND_DECOUPLED_IN_MEMORY:
            return self.parallelism * self.rng_rate
        return self.rng_rate


Address = Tuple[int, int]


class PMemArray:
    """Addressable grid of probabilistic cells bound to one backend.

    Cells start as point masses at 0. Counters accumulate per-operation
    charges; ``cost_report()`` snapshots them.  Mutating calls require
    exclusive ownership (single-writer); snapshots may be read concurrently.
    """

    def __init__(self, rows: int, cols: int, backend: BackendConfig,
                 bytes_per_element: int = 4, bits_per_raw_sample: int = 32):
        if rows < 1 or cols < 1:
            raise DomainError(f"array shape must be >= 1x1, got {rows!r}x{cols!r}")
        if bytes_per_element < 1:
            raise DomainError("bytes_per_element must be >= 1")
        if not (isinstance(bits_per_raw_sample, numbers.Integral) and bits_per_raw_sample >= 1):
            raise DomainError(f"bits_per_raw_sample must be an integer >= 1, got {bits_per_raw_sample!r}")
        self.rows = rows
        self.cols = cols
        self.backend = backend
        self.bytes_per_element = bytes_per_element
        self.bits_per_raw_sample = bits_per_raw_sample
        blank = DistributionSpec.point_mass(0.0)
        self._family = np.full((rows, cols), _FAMILIES.index(blank.family), dtype=np.int8)
        self._mu = np.full((rows, cols), blank.mu)
        self._sigma = np.full((rows, cols), blank.sigma)
        self._p = np.full((rows, cols), blank.p)
        self._write_counts = np.zeros((rows, cols), dtype=np.int64)
        self._cost = CostReport()

    # -- helpers -------------------------------------------------------------

    def _check_addr(self, addr: Address) -> Address:
        try:
            r, c = addr
            r, c = operator.index(r), operator.index(c)
        except (TypeError, ValueError):
            raise AddressError(f"address {addr!r} is not a pair of integers") from None
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise AddressError(
                f"address {addr!r} out of bounds for {self.rows}x{self.cols} array"
            )
        return r, c

    def _flat_index(self, addrs: Sequence[Address]) -> np.ndarray:
        """Row-major cell index of every address, all checked before any use."""
        try:
            if not set(map(len, addrs)) <= {2}:
                raise ValueError("not every address is a pair")
            # operator.index, as in _check_addr: a float raises, never truncates
            rc = np.fromiter(map(operator.index, chain.from_iterable(addrs)), np.intp, 2 * len(addrs))
            return np.ravel_multi_index((rc[0::2], rc[1::2]), (self.rows, self.cols))
        except (TypeError, ValueError, OverflowError):
            for addr in addrs:  # the scalar check names the first bad address
                self._check_addr(addr)
            raise

    def _spec(self, r: int, c: int) -> DistributionSpec:
        return DistributionSpec(_FAMILIES[self._family.item(r, c)], self._mu.item(r, c),
                                self._sigma.item(r, c), self._p.item(r, c))

    def _store(self, r: int, c: int, spec: DistributionSpec) -> None:
        self._family[r, c] = _FAMILIES.index(spec.family)
        self._mu[r, c] = spec.mu
        self._sigma[r, c] = spec.sigma
        self._p[r, c] = spec.p

    def _charge_deterministic_access(self) -> None:
        self._cost.bytes_moved += self.bytes_per_element
        self._cost.energy_pj += self.backend.read_energy_pj

    def _charge_stochastic_sample(self, r: int, c: int, spec: DistributionSpec) -> None:
        backend = self.backend
        cost = self._cost
        cost.entropy_bits_consumed += self.bits_per_raw_sample
        cost.energy_pj += backend.sample_energy_pj
        if backend.reads_parameters_per_draw:
            cost.bytes_moved += spec.parameter_elements * self.bytes_per_element
        cost.bytes_moved += backend.side_bytes_per_sample  # x + 0.0 == x for x >= +0.0
        cost.shaping_ops += backend.shaping_ops_per_sample
        if backend.wears_cell_per_draw:
            self._write_counts[r, c] += 1

    # -- primitives ------------------------------------------------------------

    def write(self, addr: Address, state: CellState) -> None:
        """Replace a cell; counts one physical write for endurance."""
        r, c = self._check_addr(addr)
        spec = _canonical(state)
        self._store(r, c, spec)
        self._write_counts[r, c] += 1
        self._cost.total_writes += 1
        self._cost.bytes_moved += spec.parameter_elements * self.bytes_per_element
        self._cost.energy_pj += self.backend.write_energy_pj

    def read(self, addr: Address) -> float:
        """Deterministic read: stored value, or the mean of a distribution
        cell (the zero-variance interpretation keeps READ total)."""
        r, c = self._check_addr(addr)
        self._cost.total_reads += 1
        self._charge_deterministic_access()
        return self._mu.item(r, c)

    def sample(self, addr: Address, stream: EntropyStream) -> float:
        """SAMPLE primitive: draw one value from the cell's distribution.

        Zero-variance cells return their value exactly and are charged as a
        deterministic access -- no entropy is consumed.
        """
        r, c = self._check_addr(addr)
        spec = self._spec(r, c)
        self._cost.total_samples += 1
        if not spec.consumes_entropy:
            self._charge_deterministic_access()
            if spec.family == FAMILY_BERNOULLI:
                return float(spec.p)  # degenerate: exactly 0.0 or 1.0
            return spec.mu
        self._charge_stochastic_sample(r, c, spec)
        if spec.family == FAMILY_GAUSSIAN:
            return spec.mu + spec.sigma * stream.next_normal()
        return float(stream.next_bit(spec.p))

    def read_distribution(self, addr: Address) -> DistributionSpec:
        """READ_DISTRIBUTION primitive: the cell's parameters."""
        r, c = self._check_addr(addr)
        spec = self._spec(r, c)
        self._cost.total_reads += 1
        self._cost.bytes_moved += spec.parameter_elements * self.bytes_per_element
        self._cost.energy_pj += self.backend.read_energy_pj
        return spec

    def set_variance(self, addr: Address, sigma_new: float) -> None:
        """SET_VARIANCE primitive.

        Decoupled and von Neumann backends accept any finite sigma_new >= 0.
        A coupled backend only reaches its device window
        [sigma_min_frac, sigma_max_frac] * sigma_dev(mu) and rejects anything
        else, reporting the achievable range.  Bernoulli cells have no
        sigma to program.
        """
        r, c = self._check_addr(addr)
        if self._family[r, c] == _BERNOULLI:
            raise CellTypeError("set_variance needs a gaussian cell, got bernoulli")
        mu = self._mu.item(r, c)
        spec = DistributionSpec.gaussian(mu, sigma_new)  # DomainError unless finite and >= 0
        if self.backend.kind == KIND_COUPLED_PCIM:
            lo, hi = self.backend.variance_window(mu)
            if not (lo <= sigma_new <= hi):
                raise VarianceRangeError(sigma_new, lo, hi)
        self._store(r, c, spec)
        self._write_counts[r, c] += 1
        self._cost.total_writes += 1
        self._cost.bytes_moved += self.bytes_per_element
        self._cost.energy_pj += self.backend.write_energy_pj

    def batch_sample(self, addrs: Sequence[Address],
                     stream: EntropyStream) -> Tuple[List[float], int]:
        """Sample many addresses; returns (values, elapsed model-cycles).

        Bit-identical to sequential ``sample`` calls on the same stream: the
        values, every CostReport field, the endurance map and the stream
        position all come out the same, with the batch's entropy words drawn
        in one block.  Elapsed cycles model the backend's sampling
        parallelism: ceil(n / lanes) * latency_cycles, with lanes = 1 on
        serial paths (von Neumann RNG, near-memory), one full row on coupled
        arrays, and the configured lane count in-memory.  Every address is
        checked up front, so a bad one charges nothing.
        """
        flat = self._flat_index(addrs)
        n = flat.size
        backend = self.backend
        cycles = math.ceil(n / backend.sampling_lanes(self.cols)) * backend.latency_cycles if n else 0
        if not n:
            return [], cycles

        family = self._family.take(flat)
        values = self._mu.take(flat)  # what a cell that draws nothing returns (p == mu for bernoulli)
        p = self._p.take(flat)
        gaussian = family == _GAUSSIAN
        draws = gaussian | ((family == _BERNOULLI) & (0.0 < p) & (p < 1.0))
        normal = gaussian[draws]
        drawn = stream.next_block(normal, p[draws])
        sigma = self._sigma.take(flat[draws])
        values[draws] = np.where(normal, values[draws] + sigma * drawn, drawn)

        # Charges in the order sample() makes them, one address after another:
        # a draw's parameter bytes, then its side bytes; a cell that draws
        # nothing moves one element.  A 0.0 stands for no addition
        # (x + 0.0 == x for every total x >= +0.0).
        bpe = self.bytes_per_element
        parameter_bytes = np.where(gaussian, 2 * bpe, bpe) if backend.reads_parameters_per_draw else 0.0
        byte_charges = np.column_stack((np.where(draws, parameter_bytes, bpe),
                                        np.where(draws, backend.side_bytes_per_sample, 0.0)))
        n_draws = int(np.count_nonzero(draws))
        cost = self._cost
        cost.total_samples += n
        cost.bytes_moved = _fold(cost.bytes_moved, byte_charges)
        cost.energy_pj = _fold(cost.energy_pj, np.where(draws, backend.sample_energy_pj, backend.read_energy_pj))
        cost.entropy_bits_consumed += n_draws * self.bits_per_raw_sample
        cost.shaping_ops += n_draws * backend.shaping_ops_per_sample
        if backend.wears_cell_per_draw:
            np.add.at(self._write_counts.reshape(-1), flat[draws], 1)
        return values.tolist(), cycles

    # -- introspection -----------------------------------------------------------

    def cost_report(self) -> CostReport:
        """Snapshot of the cumulative counters (pure read)."""
        return self._cost.snapshot()

    def write_count(self, addr: Address) -> int:
        r, c = self._check_addr(addr)
        return int(self._write_counts[r, c])

    @property
    def endurance_map(self) -> np.ndarray:
        return self._write_counts.copy()

    def cell(self, addr: Address) -> DistributionSpec:
        """The cell's spec without charging any access (debug/inspection)."""
        return self._spec(*self._check_addr(addr))


# ------------------------------------------------------------------------
# CSV persistence: addr_row, addr_col, family, mu, sigma_or_p
# ------------------------------------------------------------------------

CELLS_CSV_FIELDS = ("addr_row", "addr_col", "family", "mu", "sigma_or_p")


def save_array_csv(array: PMemArray, path: str) -> None:
    """Dump all cells; initialization data, not simulated traffic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CELLS_CSV_FIELDS)
        for r in range(array.rows):
            for c in range(array.cols):
                spec = array.cell((r, c))
                writer.writerow([r, c, spec.family, repr(spec.mu), repr(spec.sigma_or_p)])


def load_array_csv(path: str, backend: BackendConfig,
                   bytes_per_element: int = 4,
                   bits_per_raw_sample: int = 32) -> PMemArray:
    """Build a fresh array from a cells CSV; counters start at zero."""
    entries = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CELLS_CSV_FIELDS:
            raise DomainError(f"bad cells CSV header in {path!r}: {reader.fieldnames!r}")
        for row in reader:
            r = int(row["addr_row"])
            c = int(row["addr_col"])
            family = row["family"]
            mu = float(row["mu"])
            sp = float(row["sigma_or_p"])
            if family == FAMILY_GAUSSIAN:
                spec = DistributionSpec.gaussian(mu, sp)
            elif family == FAMILY_BERNOULLI:
                spec = DistributionSpec.bernoulli(sp)
            elif family == FAMILY_POINT_MASS:
                spec = DistributionSpec.point_mass(mu)
            else:
                raise DomainError(f"unknown family {family!r} in {path!r}")
            entries.append((r, c, spec))
    if not entries:
        raise DomainError(f"empty cells CSV {path!r}")
    rows = max(r for r, _, _ in entries) + 1
    cols = max(c for _, c, _ in entries) + 1
    array = PMemArray(rows, cols, backend, bytes_per_element, bits_per_raw_sample)
    for r, c, spec in entries:
        array._store(*array._check_addr((r, c)), spec)
    return array
