"""Parametric models of hardware entropy sources with seeded, splittable streams.

All randomness comes from one counter-based word stream, ``EntropyStream``:
word ``i`` of stream ``(seed, stream_id)`` is a pure function of ``i``, so
sequences are bit-identical across platforms, block sizes and parallel
sweeps.  The mixing function is the SplitMix64 finalizer applied to a keyed
counter (state = key + (i+1) * 0x9E3779B97F4A7C15), i.e. word ``i`` equals
output ``i`` of the canonical SplitMix64 sequence seeded at ``key``.  The
per-stream key folds ``seed`` and ``stream_id`` through the same finalizer.
The exact construction is frozen by golden vectors in the test suite.

Source kinds:

* ``pseudo_uniform``   — uniform doubles in [0, 1) (53-bit mantissa).
* ``thermal_gaussian`` — zero-mean Gaussian voltage noise; sigma given
  directly or derived from sqrt(kT/C).
* ``mismatch_static``  — per-device Gaussian offsets whose sigma follows the
  1/sqrt(area) mismatch law; as a stream, each draw is a fresh device.
* ``stochastic_switch``— Bernoulli(p) switching events, emitted as 0.0/1.0.

A source (``SourceHandle``) models its kind over the stream of its spec's
``(seed, stream_id)``, and its cursor is that stream's position in words:
one per uniform or switch sample, two per Gaussian sample (the cosine branch
of Box-Muller on a word pair).

Ideal draws are i.i.d.; non-idealities are layered on top as an AR(1)
correlation filter, an additive bias, and a linear drift of the mean
(expressed per million samples).  That layer is what ``fidelity`` judges;
no array draws it: ``EntropyStream`` is always ideal, and ``mismatch_array``
rejects a spec that carries one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distribution_shaping import box_muller_block
from .errors import DomainError, require_finite, require_int

# Boltzmann constant, J/K (2019 SI exact value).
BOLTZMANN_K = 1.380649e-23

# ------------------------------------------------------------------------
# Counter-based generator core
# ------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 state increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED_SALT = 0xBB67AE8584CAA73B  # frac(sqrt(3)), fixed whitening constant

KIND_PSEUDO_UNIFORM = "pseudo_uniform"
KIND_THERMAL_GAUSSIAN = "thermal_gaussian"
KIND_MISMATCH_STATIC = "mismatch_static"
KIND_STOCHASTIC_SWITCH = "stochastic_switch"

SOURCE_KINDS = (
    KIND_PSEUDO_UNIFORM,
    KIND_THERMAL_GAUSSIAN,
    KIND_MISMATCH_STATIC,
    KIND_STOCHASTIC_SWITCH,
)


def _finalize(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word (pure-Python reference path)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_stream_key(seed: int, stream_id: int) -> int:
    """Fold (seed, stream_id) into a 64-bit stream key.

    The finalizer is a bijection, so at a fixed seed every stream_id maps to
    a distinct key.
    """
    k = _finalize((seed ^ _SEED_SALT) & _MASK64)
    return _finalize((k + stream_id) & _MASK64)


def raw_u64(seed: int, stream_id: int, counter: int) -> int:
    """Output word ``counter`` of stream (seed, stream_id). Pure function."""
    key = derive_stream_key(seed, stream_id)
    return _finalize((key + ((counter + 1) * _GOLDEN)) & _MASK64)


def _raw_block(key: int, start: int, n: int) -> np.ndarray:
    """Vectorized words for counters [start, start + n) of a keyed stream."""
    # uint64 array arithmetic wraps mod 2**64 (C semantics), which is exactly
    # the masking ``_finalize`` does explicitly.
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(key)
    t = np.empty_like(z)  # one scratch array for every shift
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= np.uint64(mix)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _pair_normals(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals from word pairs ``(u1, u2)``: the cosine branch of
    ``box_muller_block`` alone, so block boundaries cannot shift the stream.
    u1 is mapped to (0, 1] via u -> 1 - u to dodge log(0)."""
    z1, _ = box_muller_block(1.0 - u1, u2, sine=False)
    return z1


# ------------------------------------------------------------------------
# Specs
# ------------------------------------------------------------------------


@dataclass(frozen=True)
class NonidealitySpec:
    """Bias, lag-1 autocorrelation and mean drift layered onto a stream.

    bias:   additive offset in the output unit.
    rho:    AR(1) coefficient in (-1, 1); the injected noise is scaled by
            sqrt(1 - rho^2) so the stationary variance is preserved.
    drift:  mean shift per million samples (aging folded in here too).
    """

    bias: float = 0.0
    rho: float = 0.0
    drift: float = 0.0

    def __post_init__(self) -> None:
        require_finite("bias", self.bias)
        require_finite("rho", self.rho, -1.0, 1.0, "()")
        require_finite("drift", self.drift)

    @property
    def is_identity(self) -> bool:
        return self.bias == 0.0 and self.rho == 0.0 and self.drift == 0.0


@dataclass(frozen=True)
class SourceSpec:
    """Description of one entropy source; see module docstring for kinds."""

    kind: str
    seed: int = 0
    stream_id: int = 0
    nonideality: NonidealitySpec = field(default_factory=NonidealitySpec)
    # thermal_gaussian: either sigma directly, or temperature+capacitance
    sigma: Optional[float] = None
    temperature: Optional[float] = None
    capacitance: Optional[float] = None
    # mismatch_static
    sigma0: float = 0.0
    area_wl: float = 1.0
    # stochastic_switch
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_KINDS:
            raise DomainError(f"unknown source kind {self.kind!r}")
        require_int("seed", self.seed)
        require_int("stream_id", self.stream_id)
        if self.sigma is not None:
            require_finite("sigma", self.sigma, 0.0)
        for name in ("temperature", "capacitance"):
            if getattr(self, name) is not None:
                require_finite(name, getattr(self, name), 0.0, math.inf, "()")
        require_finite("sigma0", self.sigma0, 0.0)
        require_finite("area_wl", self.area_wl, 0.0, math.inf, "()")
        require_finite("p", self.p, 0.0, 1.0)
        if self.kind == KIND_THERMAL_GAUSSIAN and self.sigma is None and (
                self.temperature is None or self.capacitance is None):
            raise DomainError("thermal_gaussian needs sigma, or temperature and capacitance")

    def ideal_sigma(self) -> float:
        """Standard deviation of the ideal (pre-non-ideality) distribution."""
        if self.kind == KIND_THERMAL_GAUSSIAN:
            if self.sigma is not None:
                return self.sigma
            return thermal_sigma(self.temperature, self.capacitance)
        if self.kind == KIND_MISMATCH_STATIC:
            return pelgrom_sigma(self.sigma0, self.area_wl)
        raise DomainError(f"{self.kind!r} has no Gaussian sigma")

    # -- conveniences -----------------------------------------------------

    @classmethod
    def pseudo_uniform(cls, **kw) -> "SourceSpec":
        return cls(kind=KIND_PSEUDO_UNIFORM, **kw)

    @classmethod
    def thermal_gaussian(cls, **kw) -> "SourceSpec":
        return cls(kind=KIND_THERMAL_GAUSSIAN, **kw)

    @classmethod  # area_wl stays positional; its default is the field's, read in the class body
    def mismatch_static(cls, sigma0: float, area_wl: float = area_wl, **kw) -> "SourceSpec":
        return cls(kind=KIND_MISMATCH_STATIC, sigma0=sigma0, area_wl=area_wl, **kw)

    @classmethod
    def stochastic_switch(cls, p: float, **kw) -> "SourceSpec":
        return cls(kind=KIND_STOCHASTIC_SWITCH, p=p, **kw)


# ------------------------------------------------------------------------
# Device-physics scaling laws
# ------------------------------------------------------------------------


def pelgrom_sigma(sigma0: float, area_wl: float) -> float:
    """Mismatch sigma at device area ``area_wl``: sigma0 / sqrt(area)."""
    require_finite("sigma0", sigma0, 0.0)
    require_finite("area_wl", area_wl, 0.0, math.inf, "()")
    return sigma0 / math.sqrt(area_wl)


def thermal_sigma(temperature: float, capacitance: float) -> float:
    """kT/C noise voltage sigma: sqrt(k_B * T / C), volts."""
    require_finite("temperature", temperature, 0.0, math.inf, "()")
    require_finite("capacitance", capacitance, 0.0, math.inf, "()")
    return math.sqrt(BOLTZMANN_K * temperature / capacitance)


# ------------------------------------------------------------------------
# Non-ideality layering
# ------------------------------------------------------------------------


@dataclass
class NonidealityState:
    """Mutable AR(1)/drift state: previous output and samples emitted."""

    prev: float = 0.0
    t: int = 0


def _apply_nonidealities_block(
    x: np.ndarray, state: NonidealityState, spec: NonidealitySpec
) -> np.ndarray:
    """Vectorized AR(1) + bias + drift over a contiguous block; an identity
    spec returns float64 ``x`` itself, still advancing ``state``."""
    n = x.shape[0]
    t0 = state.t
    if spec.rho != 0.0:
        # deferred, like every scipy import in the package: only this
        # branch uses scipy.signal
        from scipy.signal import lfilter

        c = math.sqrt(1.0 - spec.rho * spec.rho)
        y, zf = lfilter([c], [1.0, -spec.rho], x, zi=[spec.rho * state.prev])
    else:
        y = x.astype(np.float64, copy=False)
    state.prev = float(y[-1]) if n else state.prev
    state.t = t0 + n
    if spec.bias != 0.0 or spec.drift != 0.0:
        t = np.arange(t0, t0 + n, dtype=np.float64)
        y = y + spec.bias + spec.drift * (t * 1e-6)
    return y


# ------------------------------------------------------------------------
# Stream handles
# ------------------------------------------------------------------------


class EntropyStream:
    """Mixed-type deterministic draw stream: the package's one word stream,
    drawn only in blocks.  Uniform draws consume one word, normal draws two
    (a Box-Muller pair, cosine branch).  The cursor counts words and is
    exposed so callers can snapshot/replay the stream state.
    """

    def __init__(self, seed: int = 0, stream_id: int = 0):
        require_int("seed", seed)
        require_int("stream_id", stream_id)
        self.seed = seed
        self.stream_id = stream_id
        self._key = derive_stream_key(seed, stream_id)
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @position.setter
    def position(self, value: int) -> None:
        require_int("position", value, 0)
        self._pos = value

    def _uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` words as uniform doubles in [0, 1), from their top 53 bits."""
        u = (_raw_block(self._key, self._pos, n) >> np.uint64(11)) * (2.0 ** -53)
        self._pos += n
        return u

    def _normals(self, n: int) -> np.ndarray:
        """The next ``n`` standard normals, each of two words through ``_pair_normals``."""
        u = self._uniforms(2 * n)
        return _pair_normals(u[0::2], u[1::2])

    def next_block(self, normal: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Many draws at once, as float64: where ``normal[i]`` is true, draw
        ``i`` is the standard normal of the next two words (``_pair_normals``),
        else the bit ``float(u < p[i])`` of the next word ``u``.

        A block equals the same draws made in blocks of one, word for word;
        all words come from one ``_uniforms`` block, and the normals from one
        ``box_muller_block`` (libm).
        """
        normal = np.asarray(normal, dtype=bool)
        p = np.asarray(p, dtype=np.float64)
        if normal.ndim != 1 or p.shape != normal.shape:
            raise DomainError(f"normal and p must be 1-D of one length, got {normal.shape} and {p.shape}")
        if not (((0.0 <= p) & (p <= 1.0)) | normal).all():
            raise DomainError("every bit's p must lie in [0, 1]")
        words = np.where(normal, 2, 1)
        offsets = np.cumsum(words) - words
        u = self._uniforms(int(offsets[-1] + words[-1]) if words.size else 0)
        out = (u[offsets] < p).astype(np.float64)
        first = offsets[normal]
        out[normal] = _pair_normals(u[first], u[first + 1])
        return out


class SourceHandle:
    """A running entropy source; its cursor counts words of one ``EntropyStream``.

    Single-owner mutable state (the stream and the AR(1)/drift state);
    distinct handles may be driven concurrently, one handle may not.
    """

    def __init__(self, spec: SourceSpec):
        self.spec = spec
        self._stream = EntropyStream(spec.seed, spec.stream_id)
        self._ni_state = NonidealityState()

    def draw(self, n: int) -> np.ndarray:
        """Next ``n`` samples; draw(a) then draw(b) equals draw(a + b)."""
        require_int("n", n, 0)
        spec = self.spec
        if spec.kind == KIND_PSEUDO_UNIFORM:
            x = self._stream._uniforms(n)
        elif spec.kind == KIND_STOCHASTIC_SWITCH:
            x = (self._stream._uniforms(n) < spec.p).astype(np.float64)
        else:  # the Gaussian kinds
            x = spec.ideal_sigma() * self._stream._normals(n)
        return _apply_nonidealities_block(x, self._ni_state, spec.nonideality)


def create_source(spec: SourceSpec) -> SourceHandle:
    """Instantiate a deterministic stream for ``spec``."""
    return SourceHandle(spec)


# ------------------------------------------------------------------------
# Static mismatch arrays
# ------------------------------------------------------------------------


@dataclass(frozen=True)
class MismatchArray:
    """Fixed per-cell offsets of a device array (drawn once, then frozen)."""

    rows: int
    cols: int
    offsets: np.ndarray

    def __post_init__(self) -> None:
        self.offsets.setflags(write=False)


def mismatch_array(spec: SourceSpec, rows: int, cols: int) -> MismatchArray:
    """Draw the static offset map of a rows x cols device array.

    Offsets are i.i.d. Gaussian with sigma = sigma0 / sqrt(area_wl); the
    same spec always yields the same array (cells are re-derivable from
    their linear index).  Spatial correlation is out of scope: cells are
    independent, so a spec with a non-ideality is rejected.
    """
    if spec.kind != KIND_MISMATCH_STATIC:
        raise DomainError(f"mismatch_array needs a mismatch_static spec, got {spec.kind!r}")
    if not spec.nonideality.is_identity:
        raise DomainError(f"mismatch_array draws independent cells, got {spec.nonideality!r}")
    require_int("rows", rows, 1)
    require_int("cols", cols, 1)
    flat = create_source(spec).draw(rows * cols)
    return MismatchArray(rows=rows, cols=cols, offsets=flat.reshape(rows, cols))
