"""Rate-based (fluid) execution of workloads against an architecture + backend.

Two composition modes:

* ``serialized`` — deterministic and stochastic access streams share one
  serial pathway; total access time is the sum of their service times.
  This reproduces the harmonic-mean analytic model exactly and is the
  validation target.
* ``overlapped``  — per-resource max: compute, data traffic and entropy
  generation proceed concurrently.  A labeled extension, never conflated
  with the serialized model.

Backend cost translation: what one stochastic sample costs on each kind is
defined once, by ``BackendConfig`` in ``probabilistic_memory``, which
``PMemArray`` reads too.  Per sample the simulator charges
``raw_entropy_rate(beta_data)`` for the draw, ``side_bytes_per_sample`` of
data-path traffic and ``shaping_ops_per_sample`` of compute, which
``backend_effective_rates`` folds into the analytic model's rates.  Unlike
``PMemArray``, the simulator does not charge a decoupled draw's parameter
read (``reads_parameters_per_draw``).

One function, ``_evaluate``, defines the time terms over float64 columns:
t_compute = (n_ops + shaping * draws) / pi, t_data = det / beta_data,
t_transport = draws * side_elements / beta_data, t_entropy = draws / raw;
elapsed = max(t_compute, access), transport riding on the side of access that
elapsed adds it to (entropy's when serialized, data's when overlapped); and
the label, by ``perf_model``'s one rule: ComputeBound where t_compute sets
elapsed, else the larger access side.  ``sweep`` evaluates it once over the
whole alpha x ai x config grid, ``run`` over a one-point column.  Counts are
float64 (an ai near the float maximum gives counts far past int64), each
rounded once from its Python integer, the operation demand after the exact
integer sum, so a column equals Python's scalar arithmetic bit for bit
(except that Python divides a count past 2**53 by an int rate exactly).

Simulation is counts divided by capacities -- no queueing, caching or DRAM
timing."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateWorkloadError, DomainError, require_finite, require_int
from .perf_model import _REGIMES, ArchParams, RegimeLabel, _check_ai, _check_alpha, _regime_codes
from .probabilistic_memory import BACKEND_KINDS, BackendConfig, CostReport
from .workload import WorkloadSpec

MODE_SERIALIZED = "serialized"
MODE_OVERLAPPED = "overlapped"
MODES = (MODE_SERIALIZED, MODE_OVERLAPPED)

SWEEP_DIMENSIONS = ("alpha", "ai", "beta_rand", "backend", "mode")


@dataclass(frozen=True)
class SimConfig:
    arch: ArchParams
    backend: BackendConfig
    mode: str = MODE_SERIALIZED

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")

    @classmethod
    def default(cls) -> "SimConfig":
        return cls(arch=ArchParams.default(), backend=BackendConfig.von_neumann())


@dataclass(frozen=True)
class SimResult:
    elapsed_time: float
    achieved_phi: float
    achieved_beta: float
    cost: CostReport
    regime_observed: RegimeLabel
    alpha: float
    ai: float

    def to_dict(self) -> Dict:
        return {**asdict(self), "regime_observed": str(self.regime_observed)}


def backend_effective_rates(config: SimConfig) -> Tuple[float, float]:
    """(beta_data_eff, beta_rand_eff) for the analytic model.

    beta_rand_eff folds each sample's side traffic serially into the
    entropy rate, so plugging these rates into the harmonic model
    reproduces the serialized simulator exactly.
    """
    beta_data = config.arch.beta_data
    raw = config.backend.raw_entropy_rate(beta_data)
    extra = config.backend.side_bytes_per_sample / config.arch.bytes_per_element
    if extra == 0.0:
        return beta_data, raw
    return beta_data, 1.0 / (1.0 / raw + extra / beta_data)


_RESULT_FIELDS = ("elapsed_time", "achieved_phi", "achieved_beta", "regime")
_ABSENT = object()  # beta_rand missing from a grid, where a null is a bad value


def _evaluate(total: int, stochs: Sequence[int], ops: Sequence[int],
              configs: Sequence[SimConfig]) -> Tuple[np.ndarray, ...]:
    """The ``_RESULT_FIELDS`` at every point of stochs x ops x configs, each of
    that shape: workload (a, i) makes ``stochs[a]`` of its ``total`` accesses
    as draws and ``ops[i]`` operations."""
    costs = [cfg.backend.shaping_ops_per_sample for cfg in configs]
    demand = {k: np.array([float(n + k * s) for s in stochs for n in ops]) for k in set(costs)}
    ops_demand = np.stack([demand[k] for k in costs], axis=-1).reshape(len(stochs), len(ops), -1)
    n_ops = np.array([float(n) for n in ops])[None, :, None]
    stoch = np.array([float(s) for s in stochs])[:, None, None]
    det = np.array([float(total - s) for s in stochs])[:, None, None]
    pi, beta_data, extra, raw_rate, serialized = np.array([(
        cfg.arch.pi, cfg.arch.beta_data, cfg.backend.side_bytes_per_sample / cfg.arch.bytes_per_element,
        cfg.backend.raw_entropy_rate(cfg.arch.beta_data), cfg.mode == MODE_SERIALIZED,
    ) for cfg in configs], dtype=np.float64).T[:, None, None, :]

    with np.errstate(over="ignore"):  # past the float range is inf, as for Python floats
        t_compute = ops_demand / pi
        t_data = det / beta_data
        t_transport = stoch * extra / beta_data
        t_entropy = stoch / raw_rate
        data = t_data + np.where(serialized, 0.0, t_transport)
        entropy = t_entropy + np.where(serialized, t_transport, 0.0)
        access = np.where(serialized, t_data + t_transport + t_entropy, np.maximum(data, entropy))
        elapsed = np.maximum(t_compute, access)
        return (elapsed, n_ops / elapsed, float(total) / elapsed,
                _REGIMES[_regime_codes(t_compute, access, data, entropy)])


def run(workload: WorkloadSpec, config: SimConfig) -> SimResult:
    """Execute one workload; pure function of (workload, config).

    The point goes through ``_evaluate``'s numpy calls on one-element
    columns: 20–50 µs per call (Python 3.11, numpy 2.4, 2-core x86-64),
    about 250 times ``sweep``'s cost per point.  Evaluate many points with
    one ``sweep``."""
    if workload.total_accesses < 1:
        raise DegenerateWorkloadError(f"workload {workload.name!r} has no accesses to simulate")
    arch, backend = config.arch, config.backend
    det, stoch = workload.det_accesses, workload.stoch_accesses
    extra = backend.side_bytes_per_sample / arch.bytes_per_element
    elapsed, phi, beta, regime = (column.item() for column in _evaluate(
        workload.total_accesses, [stoch], [workload.n_ops], [config]))
    cost = CostReport(
        total_reads=det,
        total_writes=0,
        total_samples=stoch,
        bytes_moved=(det + stoch * extra) * arch.bytes_per_element,
        entropy_bits_consumed=stoch * 32,
        energy_pj=det * backend.read_energy_pj + stoch * backend.sample_energy_pj,
        shaping_ops=stoch * backend.shaping_ops_per_sample,
    )
    return SimResult(
        elapsed_time=elapsed,
        achieved_phi=phi,
        achieved_beta=beta,
        cost=cost,
        regime_observed=regime,
        alpha=workload.alpha(),
        ai=workload.ai(),
    )


# ------------------------------------------------------------------------
# Parameter sweeps
# ------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep's rows as columns named and ordered like the ``sweep`` CSV's
    fields, each stored at the shape it varies over (alpha, ai, config or all
    three): ``table[name]`` broadcasts it to ``shape``, in row order."""

    columns: Dict[str, np.ndarray]
    shape: Tuple[int, int, int]

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, name: str) -> np.ndarray:
        return np.broadcast_to(self.columns[name], self.shape).ravel()


def _grid_configs(config: SimConfig, grid: Dict[str, Sequence]) -> List[SimConfig]:
    """Every (beta_rand, backend, mode) config of the grid, in row order.
    Each arch is built once per beta_rand, each backend once per pair."""
    configs = []
    for beta_rand in grid.get("beta_rand", [_ABSENT]):
        arch, base = config.arch, config.backend
        if beta_rand is not _ABSENT:
            require_finite("beta_rand", beta_rand, 0.0, math.inf, "()")  # float() takes True and "1e9"
            arch = replace(arch, beta_rand=float(beta_rand))
            base = replace(base, rng_rate=float(beta_rand))
        for value in grid.get("backend", [base]):
            if isinstance(value, BackendConfig):
                backend = value
            elif value in BACKEND_KINDS:
                backend = BackendConfig.for_kind(value, base)
            else:
                raise DomainError(f"invalid backend grid value {value!r}")
            configs += [SimConfig(arch=arch, backend=backend, mode=mode)
                        for mode in grid.get("mode", [config.mode])]
    return configs


def sweep(
    config: SimConfig,
    grid: Dict[str, Sequence],
    workload: Optional[WorkloadSpec] = None,
    base_accesses: int = 1_000_000,
) -> SweepTable:
    """Cartesian sweep over grid dimensions, deterministic row order.

    Grid keys: ``alpha``, ``ai`` (synthesize/override the workload),
    ``beta_rand`` (retimes both the analytic rate and the backend RNG),
    ``backend`` (kind names or configs), ``mode``.  Dimensions absent from
    the grid stay at the base config / workload values.  Rows are ordered
    by grid position (row-major over the canonical dimension order).  Every
    grid value is checked and each config built once, before the whole grid
    is evaluated as columns.
    """
    if not grid:
        raise DomainError("empty parameter grid")
    for dim, values in grid.items():
        if dim not in SWEEP_DIMENSIONS:
            raise DomainError(f"unknown sweep dimension {dim!r}; valid: {', '.join(SWEEP_DIMENSIONS)}")
        if not isinstance(values, (list, tuple)) or not values:
            raise DomainError(f"sweep dimension {dim!r} must be a non-empty list or tuple, got {values!r}")
    require_int("base_accesses", base_accesses, 0)

    if workload is None or "alpha" in grid or "ai" in grid:
        # synthetic workloads of base_accesses accesses, the default at alpha 0.5, ai 2
        alpha, ai = (0.5, 2.0) if workload is None else (workload.alpha(), workload.ai())
        alphas, ais = grid.get("alpha", [alpha]), grid.get("ai", [ai])
        for value in alphas:
            _check_alpha(value)
        for value in ais:
            _check_ai(value)
            if float(value) * base_accesses == math.inf:
                raise DomainError(f"ai * base_accesses overflows: {value!r} * {base_accesses!r}", "ai")
        total = base_accesses
        stochs = [round(float(value) * base_accesses) for value in alphas]
        ops = [max(1, round(float(value) * base_accesses)) for value in ais]
    else:
        total, stochs, ops = workload.total_accesses, [workload.stoch_accesses], [workload.n_ops]
    if total < 1:
        raise DegenerateWorkloadError("a sweep needs workloads with accesses to simulate")
    configs = _grid_configs(config, grid)

    columns = {
        "alpha": np.array([s / total for s in stochs])[:, None, None],
        "ai": np.array([n / total for n in ops])[None, :, None],
    }
    per_config = [(cfg.arch.beta_rand, cfg.backend.kind, cfg.mode, *backend_effective_rates(cfg))
                  for cfg in configs]  # the configs' own values, ints included
    columns.update(zip(("beta_rand", "backend", "mode", "beta_data_eff", "beta_rand_eff"),
                       np.array(per_config, dtype=object).T[:, None, None, :]))
    columns.update(zip(_RESULT_FIELDS, _evaluate(total, stochs, ops, configs)))
    return SweepTable(columns=columns, shape=(len(stochs), len(ops), len(configs)))
