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
the kind.  Both charge 32 bits of entropy a draw (``_BITS_PER_DRAW``); the
one charge they price differently is a decoupled draw's parameter read, which
the simulator does not charge.

Per-operation charges land in a CostReport; per-cell write counts model
endurance.  Arrays are single-writer: mutation requires exclusive access.

Cells are stored as a structure of arrays: a family code and the ``mu`` and
``sigma`` fields of the cell's DistributionSpec, each a rows x cols numpy
array, so a spec read back is equal to the one written on every field.
A cell is checked once, when WRITE, SET_VARIANCE or ``load_array_csv`` stores
it; a spec read back (READ_DISTRIBUTION, ``cell``) is built from the stored
fields and not checked again.  Every primitive computes its new cost totals
before it charges or draws anything: a total past the float range raises
DomainError naming the CostReport field and changes nothing.
``batch_sample`` is the one SAMPLE path, one vectorized pass over those
arrays; ``sample`` is a batch of one, and a batch of ``n`` equals ``n``
batches of one bit for bit (values, CostReport, endurance map and stream
position).  An address is an in-bounds pair of integers (numpy integer types
included); any other address raises AddressError before anything is charged,
in every primitive and anywhere in a batch.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import asdict, dataclass, replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .distribution_shaping import ShapingPipelineSpec
from .entropy_sources import EntropyStream
from .errors import (_FLOAT_MAX, AddressError, CellTypeError, DomainError, VarianceRangeError, parse_number,
                     require_bool, require_finite, require_int)

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
_POINT_MASS = _FAMILIES.index(FAMILY_POINT_MASS)
_BITS_PER_DRAW = 32  # entropy one stochastic draw consumes, on every backend
_SIDE_BYTES_NAMES = {KIND_VON_NEUMANN: "transport_bytes_per_sample",
                     KIND_DECOUPLED_NEAR_MEMORY: "writeback_bytes_per_sample"}


def _draws(code, mu):
    """Whether a cell draws, elementwise on arrays: a gaussian (sigma > 0), a bernoulli of 0 < p = mu < 1."""
    return (code == _GAUSSIAN) | ((code == _BERNOULLI) & (0.0 < mu) & (mu < 1.0))


def _parameter_elements(code):
    """Stored parameter words of family code ``code``, elementwise on arrays: (mu, sigma) or one."""
    return 1 + (code == _GAUSSIAN)


def _fold(total: float, charges: np.ndarray) -> float:
    """``total`` after ``total += charge`` for each charge in order.

    ``np.add.accumulate`` is a sequential left fold, so this equals charging
    one at a time bit for bit; ``np.sum`` (pairwise) and ``count * charge`` do
    not.
    """
    return float(np.add.accumulate(np.concatenate(([total], charges.ravel())))[-1])


def _check_totals(bytes_moved: float, energy_pj: float) -> None:
    """Raise DomainError naming the CostReport field whose new total is past the float range."""
    if bytes_moved == math.inf or energy_pj == math.inf:
        name = "bytes_moved" if bytes_moved == math.inf else "energy_pj"
        raise DomainError(f"the cost report's {name} is past the float range", name)


@dataclass(frozen=True)
class DistributionSpec:
    """What a cell returns when sampled: a family, a mean and a gaussian's spread.

    Every field must be finite.  A bernoulli's p is its ``mu``, in [0, 1]; only a
    gaussian has a nonzero ``sigma``, and one of sigma 0 is a point mass (the
    zero-variance limit) on construction.  Nothing else is clamped or coerced.
    """

    family: str
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown distribution family {self.family!r}")
        gaussian, bernoulli = self.family == FAMILY_GAUSSIAN, self.family == FAMILY_BERNOULLI
        require_finite("p" if bernoulli else "mu", self.mu, 0.0 if bernoulli else -math.inf,
                       1.0 if bernoulli else math.inf)
        require_finite("sigma", self.sigma, 0.0, math.inf if gaussian else 0.0)
        if self.sigma == 0.0:
            object.__setattr__(self, "sigma", 0.0)
            if gaussian:
                object.__setattr__(self, "family", FAMILY_POINT_MASS)

    @classmethod
    def _trusted(cls, family: str, mu: float, sigma: float) -> "DistributionSpec":
        """A spec of fields already checked and canonical (a stored cell's), skipping ``__post_init__``."""
        spec = object.__new__(cls)
        spec.__dict__.update(family=family, mu=mu, sigma=sigma)
        return spec

    @classmethod
    def gaussian(cls, mu: float, sigma: float) -> "DistributionSpec":
        return cls(family=FAMILY_GAUSSIAN, mu=mu, sigma=sigma)

    @classmethod
    def bernoulli(cls, p: float) -> "DistributionSpec":
        return cls(family=FAMILY_BERNOULLI, mu=p)

    @classmethod
    def point_mass(cls, mu: float) -> "DistributionSpec":
        return cls(family=FAMILY_POINT_MASS, mu=mu)

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def sigma_or_p(self) -> float:
        return self.mu if self.family == FAMILY_BERNOULLI else self.sigma

    @property
    def consumes_entropy(self) -> bool:
        """Whether sampling this cell draws from the entropy stream."""
        return _draws(_FAMILIES.index(self.family), self.mu)


# A cell is written either as a raw number (deterministic value) or as a
# DistributionSpec; raw numbers canonicalize to point masses.
CellState = Union[float, int, DistributionSpec]


def _stored_fields(backend: "BackendConfig", state: CellState) -> Tuple[int, float, float]:
    """The checked (family code, mu, sigma) that WRITE and ``load_array_csv`` store for
    ``state``: a number (not a bool) is a point mass, a gaussian in ``check_sigma``'s window."""
    if not isinstance(state, DistributionSpec):
        require_finite("value", state)
        return _POINT_MASS, float(state), 0.0
    if state.family == FAMILY_GAUSSIAN:
        backend.check_sigma(state.mu, state.sigma)
    return _FAMILIES.index(state.family), state.mu, state.sigma


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
        return asdict(self)


@dataclass(frozen=True)
class BackendConfig:
    """Backend kind, its cost/constraint parameters and what a draw costs
    on it (see module docstring)."""

    kind: str
    # shared cost knobs
    read_energy_pj: float = 1.0
    write_energy_pj: float = 10.0
    sample_energy_pj: float = 5.0
    latency_cycles: int = 1
    # von_neumann
    transport_bytes_per_sample: float = 4.0
    shaping: ShapingPipelineSpec = ShapingPipelineSpec(method="box_muller")
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
        if not isinstance(self.shaping, ShapingPipelineSpec):
            raise DomainError(f"shaping must be a ShapingPipelineSpec, got {self.shaping!r}", "shaping")
        for name in ("read_energy_pj", "write_energy_pj", "sample_energy_pj", "sigma0"):
            require_finite(name, getattr(self, name), 0.0, math.inf, "()")
        for name in ("transport_bytes_per_sample", "writeback_bytes_per_sample", "gamma"):
            require_finite(name, getattr(self, name), 0.0)
        require_finite("sigma_min_frac", self.sigma_min_frac, 0.0, 1.0, "(]")
        require_finite("sigma_max_frac", self.sigma_max_frac, 1.0)
        require_int("latency_cycles", self.latency_cycles, 1)
        require_int("parallelism", self.parallelism, 1)
        require_bool("write_based_sampling", self.write_based_sampling)

    # -- constructors per kind ---------------------------------------------

    @classmethod
    def von_neumann(cls, **kw) -> "BackendConfig":
        return cls(kind=KIND_VON_NEUMANN, **kw)

    @classmethod
    def coupled_pcim(cls, **kw) -> "BackendConfig":
        return cls(kind=KIND_COUPLED_PCIM, **kw)

    @classmethod
    def decoupled_near_memory(cls, **kw) -> "BackendConfig":
        return cls(kind=KIND_DECOUPLED_NEAR_MEMORY, **kw)

    @classmethod
    def decoupled_in_memory(cls, **kw) -> "BackendConfig":
        return cls(kind=KIND_DECOUPLED_IN_MEMORY, **kw)

    @classmethod
    def for_kind(cls, kind: str, base: "BackendConfig") -> "BackendConfig":
        """``base`` switched to backend ``kind``: ``base`` itself when the kind
        matches, else the kind's defaults with ``base.parallelism`` carried over
        to decoupled_in_memory and ``base.shaping`` to von_neumann.  No rate is
        carried: the entropy rate is the architecture's (see ``raw_entropy_rate``)."""
        if kind == base.kind:
            return base
        carried = {KIND_DECOUPLED_IN_MEMORY: {"parallelism": base.parallelism},
                   KIND_VON_NEUMANN: {"shaping": base.shaping}}
        return cls(kind=kind, **carried.get(kind, {}))

    # -- coupled device model ------------------------------------------------

    def sigma_dev(self, mu: float) -> float:
        """Native device sigma at mean level ``mu`` (coupled backends)."""
        return self.sigma0 * (1.0 + self.gamma * abs(mu))

    def variance_window(self, mu: float) -> Tuple[float, float]:
        """Achievable [lo, hi] sigma window around sigma_dev(mu)."""
        dev = self.sigma_dev(mu)
        return (self.sigma_min_frac * dev, self.sigma_max_frac * dev)

    def check_sigma(self, mu: float, sigma: float) -> None:
        """Raise VarianceRangeError unless a gaussian cell at ``mu`` can hold
        ``sigma``: a coupled device reaches only its variance window, every
        other kind any sigma.  SET_VARIANCE, WRITE and a loaded cells CSV all
        ask here."""
        if self.kind == KIND_COUPLED_PCIM:
            lo, hi = self.variance_window(mu)
            if not (lo <= sigma <= hi):
                raise VarianceRangeError(sigma, lo, hi)

    # -- what one stochastic draw costs ----------------------------------------

    @property
    def shaping_ops_per_sample(self) -> int:
        """Shaping arithmetic per draw; only the von Neumann RNG pipeline has one."""
        if self.kind == KIND_VON_NEUMANN:
            return self.shaping.ops_per_sample
        return 0

    @property
    def side_bytes_name(self) -> Optional[str]:
        """The field that sets ``side_bytes_per_sample``, if the kind moves side bytes."""
        return _SIDE_BYTES_NAMES.get(self.kind)

    @property
    def side_bytes_per_sample(self) -> float:
        """Bytes a draw moves besides a parameter read: transport or write-back."""
        name = self.side_bytes_name
        return 0.0 if name is None else getattr(self, name)

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

    def raw_entropy_rate(self, beta_data: float, beta_rand: float) -> float:
        """Draws/second of the entropy path before side traffic is folded in: the
        data rate when coupled, ``parallelism`` lanes of ``beta_rand`` in-memory, else ``beta_rand``.
        An int product past the float range is inf, as a float product is."""
        if self.kind == KIND_COUPLED_PCIM:
            return beta_data
        if self.kind == KIND_DECOUPLED_IN_MEMORY:
            rate = self.parallelism * beta_rand
            return rate if rate <= _FLOAT_MAX else math.inf
        return beta_rand

    @property
    def entropy_rate_name(self) -> str:
        """The ``ArchParams`` rate that ``raw_entropy_rate`` draws at."""
        return "beta_data" if self.kind == KIND_COUPLED_PCIM else "beta_rand"


Address = Tuple[int, int]


class PMemArray:
    """Addressable grid of probabilistic cells bound to one backend.

    Cells start as point masses at 0. Counters accumulate per-operation
    charges; ``cost_report()`` snapshots them.  Mutating calls require
    exclusive ownership (single-writer); snapshots may be read concurrently.
    """

    def __init__(self, rows: int, cols: int, backend: BackendConfig, bytes_per_element: int = 4):
        require_int("rows", rows, 1)
        require_int("cols", cols, 1)
        require_int("bytes_per_element", bytes_per_element, 1, _FLOAT_MAX)
        self.rows = rows
        self.cols = cols
        self.backend = backend
        self.bytes_per_element = bytes_per_element
        self.bits_per_raw_sample = _BITS_PER_DRAW  # read-only: what each draw charges
        self._family = np.full((rows, cols), _POINT_MASS, dtype=np.int8)
        self._mu = np.zeros((rows, cols))
        self._sigma = np.zeros((rows, cols))
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
            # struct's "q" takes what operator.index does (_check_addr): a float raises, never truncates
            rc = np.frombuffer(struct.pack(f"{2 * len(addrs)}q", *chain.from_iterable(addrs)), np.int64)
            return np.ravel_multi_index((rc[0::2], rc[1::2]), (self.rows, self.cols))
        except (TypeError, ValueError, struct.error):
            for addr in addrs:  # the scalar check names the first bad address
                self._check_addr(addr)
            raise

    def _spec(self, r: int, c: int) -> DistributionSpec:
        return DistributionSpec._trusted(_FAMILIES[self._family.item(r, c)], self._mu.item(r, c),
                                         self._sigma.item(r, c))

    def _store(self, r: int, c: int, code: int, mu: float, sigma: float) -> None:
        """Store a cell's fields; every caller has checked them and made them canonical."""
        self._family[r, c] = code
        self._mu[r, c] = mu
        self._sigma[r, c] = sigma

    def _charge_access(self, elements: int, energy_pj: float) -> None:
        """Charge one access that moves ``elements`` words at ``energy_pj``; a
        total past the float range raises DomainError and charges nothing."""
        cost = self._cost
        bytes_moved = cost.bytes_moved + elements * float(self.bytes_per_element)
        energy = cost.energy_pj + energy_pj
        _check_totals(bytes_moved, energy)
        cost.bytes_moved, cost.energy_pj = bytes_moved, energy

    # -- primitives ------------------------------------------------------------

    def write(self, addr: Address, state: CellState) -> None:
        """Replace a cell; counts one physical write for endurance.  A gaussian
        outside a coupled backend's variance window raises VarianceRangeError
        and changes nothing."""
        r, c = self._check_addr(addr)
        code, mu, sigma = _stored_fields(self.backend, state)
        self._charge_access(_parameter_elements(code), self.backend.write_energy_pj)
        self._store(r, c, code, mu, sigma)
        self._write_counts[r, c] += 1
        self._cost.total_writes += 1

    def read(self, addr: Address) -> float:
        """Deterministic read: stored value, or the mean of a distribution
        cell (the zero-variance interpretation keeps READ total)."""
        r, c = self._check_addr(addr)
        self._charge_access(1, self.backend.read_energy_pj)
        self._cost.total_reads += 1
        return self._mu.item(r, c)

    def sample(self, addr: Address, stream: EntropyStream) -> float:
        """SAMPLE primitive: draw one value from the cell's distribution, as a
        batch of one (to draw many, call ``batch_sample`` once).

        Zero-variance cells return their value exactly and are charged as a
        deterministic access -- no entropy is consumed.
        """
        return self.batch_sample([addr], stream)[0][0]

    def read_distribution(self, addr: Address) -> DistributionSpec:
        """READ_DISTRIBUTION primitive: the cell's parameters."""
        r, c = self._check_addr(addr)
        self._charge_access(_parameter_elements(self._family.item(r, c)), self.backend.read_energy_pj)
        self._cost.total_reads += 1
        return self._spec(r, c)

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
        require_finite("sigma", sigma_new, 0.0)  # as DistributionSpec.gaussian checks it
        self.backend.check_sigma(mu, sigma_new)  # 0 too: a coupled window starts above 0
        self._charge_access(1, self.backend.write_energy_pj)
        sigma = sigma_new or 0.0  # a gaussian of sigma 0 is a point mass of sigma +0.0
        self._store(r, c, _GAUSSIAN if sigma else _POINT_MASS, mu, sigma)
        self._write_counts[r, c] += 1
        self._cost.total_writes += 1

    def batch_sample(self, addrs: Sequence[Address],
                     stream: EntropyStream) -> Tuple[List[float], int]:
        """Sample many addresses; returns (values, elapsed model-cycles).

        Bit-identical to sampling the addresses one batch of one at a time
        on the same stream: the values, every CostReport field, the endurance
        map and the stream position all come out the same, with the batch's
        entropy words drawn in one block.  Elapsed cycles model the backend's
        sampling parallelism: ceil(n / lanes) * latency_cycles, with lanes = 1
        on serial paths (von Neumann RNG, near-memory), one full row on
        coupled arrays, and the configured lane count in-memory.  Every
        address and the new cost totals are checked up front, so a bad
        address, or a total past the float range, charges and draws nothing.
        """
        flat = self._flat_index(addrs)
        n = flat.size
        backend = self.backend
        cycles = math.ceil(n / backend.sampling_lanes(self.cols)) * backend.latency_cycles if n else 0
        if not n:
            return [], cycles

        family = self._family.take(flat)
        values = self._mu.take(flat)  # what a cell that draws nothing returns, and a bernoulli's p
        draws = _draws(family, values)

        # Charges one address after another, in the batch's order:
        # a draw's parameter bytes, then its side bytes; a cell that draws
        # nothing moves one element.  A 0.0 stands for no addition
        # (x + 0.0 == x for every total x >= +0.0).
        cost = self._cost
        bpe = float(self.bytes_per_element)
        with np.errstate(over="ignore"):  # a total past the float range is inf, then refused
            parameter_bytes = _parameter_elements(family) * bpe if backend.reads_parameters_per_draw else 0.0
            byte_charges = np.column_stack((np.where(draws, parameter_bytes, bpe),
                                            np.where(draws, backend.side_bytes_per_sample, 0.0)))
            bytes_moved = _fold(cost.bytes_moved, byte_charges)
            energy = _fold(cost.energy_pj, np.where(draws, backend.sample_energy_pj, backend.read_energy_pj))
        _check_totals(bytes_moved, energy)

        mu = values[draws]
        normal = family[draws] == _GAUSSIAN
        drawn = stream.next_block(normal, mu)
        values[draws] = np.where(normal, mu + self._sigma.take(flat[draws]) * drawn, drawn)
        n_draws = int(np.count_nonzero(draws))
        cost.total_samples += n
        cost.bytes_moved, cost.energy_pj = bytes_moved, energy
        cost.entropy_bits_consumed += n_draws * _BITS_PER_DRAW
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
    """Dump all cells; initialization data, not simulated traffic.  Lines
    end in CRLF and no field is quoted: families are names, the rest numbers."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CELLS_CSV_FIELDS) + "\r\n")
        for r in range(array.rows):
            for c in range(array.cols):
                spec = array.cell((r, c))
                fh.write("{},{},{},{!r},{!r}\r\n".format(r, c, spec.family, spec.mu, spec.sigma_or_p))


def load_array_csv(path: str, backend: BackendConfig, bytes_per_element: int = 4) -> PMemArray:
    """Build a fresh array from a cells CSV; counters start at zero.

    Each physical line is one row of comma-separated fields, as
    ``save_array_csv`` writes it; fields are neither stripped nor unquoted,
    and empty lines are skipped.  A bad row, a gaussian outside a coupled
    backend's variance window included, raises DomainError naming its line;
    a byte the text encoding cannot decode is kept as a lone surrogate, so it
    fails its own field's check.
    """
    entries = []
    with open(path, newline="", errors="surrogateescape") as fh:
        header = next(fh, None)
        fields = None if header is None else header.rstrip("\r\n").split(",")
        if fields is None or tuple(fields) != CELLS_CSV_FIELDS:
            raise DomainError(f"bad cells CSV header in {path!r}: {fields!r}")
        for line_no, line in enumerate(fh, start=2):
            row = line.rstrip("\r\n").split(",")
            if row == [""]:
                continue  # empty lines
            try:
                if len(row) != len(CELLS_CSV_FIELDS):
                    raise DomainError(f"expected {len(CELLS_CSV_FIELDS)} fields, got {len(row)}")
                *address, family, mu, sp = row
                r, c = (parse_number(t, signed=True) for t in address)  # bounds reject < 0
                mu, sp = parse_number(mu, float), parse_number(sp, float)
                spec = DistributionSpec(family, *((sp,) if family == FAMILY_BERNOULLI else (mu, sp)))
                if spec.family == FAMILY_BERNOULLI and repr(mu) != repr(sp):  # p in both columns, -0.0 too
                    raise DomainError(f"a bernoulli's mu is its p, got mu {mu!r} and p {sp!r}", "mu")
                stored = _stored_fields(backend, spec)
            except (DomainError, VarianceRangeError) as exc:
                raise DomainError(f"line {line_no} of {path!r}: {exc}", getattr(exc, "name", None)) from exc
            entries.append((r, c, stored))
    if not entries:
        raise DomainError(f"empty cells CSV {path!r}")
    rows = max(r for r, _, _ in entries) + 1
    cols = max(c for _, c, _ in entries) + 1
    array = PMemArray(rows, cols, backend, bytes_per_element)
    for r, c, stored in entries:
        array._store(*array._check_addr((r, c)), *stored)
    return array
