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
``raw_entropy_rate(beta_data, beta_rand)`` for the draw, from the arch's
rates (``ArchParams.beta_rand`` is the one entropy rate), ``PMemArray``'s 32
bits of entropy, ``side_bytes_per_sample`` of data-path traffic (in elements,
``_side_elements``) and ``shaping_ops_per_sample`` of compute, which
``backend_effective_rates`` folds into the analytic model's rates.  Unlike
``PMemArray``, it does not charge a decoupled draw's parameter read.

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
(except that Python divides a count past 2**53 by an int rate exactly); a
count or demand past the float range raises DomainError naming it.

Simulation is counts divided by capacities -- no queueing, caching or DRAM
timing."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateWorkloadError, DomainError, require_finite, require_int
from .perf_model import (_REGIMES, ArchParams, RegimeLabel, SweepTable, _check_ai, _check_alpha,
                         _regime_codes)
from .probabilistic_memory import _BITS_PER_DRAW, BACKEND_KINDS, BackendConfig, CostReport
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


def _side_elements(config: SimConfig) -> float:
    """A draw's side bytes (transport or write-back) in the arch's elements."""
    return config.backend.side_bytes_per_sample / config.arch.bytes_per_element


def backend_effective_rates(config: SimConfig) -> Tuple[float, float]:
    """(beta_data_eff, beta_rand_eff) for the analytic model.

    beta_rand_eff folds each sample's side traffic serially into the
    entropy rate, so plugging these rates into the harmonic model
    reproduces the serialized simulator exactly.
    """
    beta_data = config.arch.beta_data
    raw = config.backend.raw_entropy_rate(beta_data, config.arch.beta_rand)
    extra = _side_elements(config)
    if extra == 0.0:
        return beta_data, raw
    return beta_data, 1.0 / (1.0 / raw + extra / beta_data)


_RESULT_FIELDS = ("elapsed_time", "achieved_phi", "achieved_beta", "regime")


def _floats(counts: List[int], name: str, what: Optional[str] = None) -> np.ndarray:
    """Python integer counts as float64, each rounded once; where one is past
    the float range, DomainError naming the count ``name`` (``what`` says it)."""
    try:
        return np.array([float(n) for n in counts])
    except OverflowError:
        bits = max(counts).bit_length()
        raise DomainError(f"{what or name} is past the float range: a {bits:,}-bit count, "
                          "and floats end below 2**1024", name) from None


def _evaluate(total: int, stochs: Sequence[int], ops: Sequence[int],
              configs: Sequence[SimConfig]) -> Tuple[np.ndarray, ...]:
    """The ``_RESULT_FIELDS`` at every point of stochs x ops x configs, each of
    that shape: workload (a, i) makes ``stochs[a]`` of its ``total`` accesses
    as draws and ``ops[i]`` operations."""
    n_ops = _floats(ops, "n_ops")[None, :, None]
    stoch = _floats(stochs, "stoch_accesses")[:, None, None]
    det = _floats([total - s for s in stochs], "det_accesses")[:, None, None]
    costs = [cfg.backend.shaping_ops_per_sample for cfg in configs]
    demand = {k: _floats([n + k * s for s in stochs for n in ops], "n_ops",
                         "the operation demand n_ops + shaping_ops_per_sample * stoch_accesses") for k in set(costs)}
    ops_demand = np.stack([demand[k] for k in costs], axis=-1).reshape(len(stochs), len(ops), -1)
    pi, beta_data, extra, raw_rate, serialized = np.array([(
        cfg.arch.pi, cfg.arch.beta_data, _side_elements(cfg),
        cfg.backend.raw_entropy_rate(cfg.arch.beta_data, cfg.arch.beta_rand), cfg.mode == MODE_SERIALIZED,
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
        if not np.isfinite(elapsed.max()):  # the config is at fault, as for an ai that overflows
            point = tuple(np.argwhere(~np.isfinite(elapsed))[0])  # named by its largest time term's rate
            terms = [np.broadcast_to(t, elapsed.shape)[point] for t in (t_compute, t_data, t_transport, t_entropy)]
            cfg = configs[point[-1]]
            name = ("pi", "beta_data", "beta_data", cfg.backend.entropy_rate_name)[int(np.argmax(terms))]
            raise DomainError(f"elapsed time overflows the float range at {name} = {getattr(cfg.arch, name)!r}", name)
        return (elapsed, n_ops / elapsed, float(total) / elapsed,
                _REGIMES[_regime_codes(t_compute, access, data, entropy)])


def _cost(det: int, stoch: int, config: SimConfig) -> CostReport:
    """What ``det`` reads and ``stoch`` draws cost under ``config``; a float total may be inf."""
    backend = config.backend
    return CostReport(
        total_reads=det,
        total_writes=0,
        total_samples=stoch,
        bytes_moved=(det + stoch * _side_elements(config)) * config.arch.bytes_per_element,
        entropy_bits_consumed=stoch * _BITS_PER_DRAW,
        energy_pj=det * backend.read_energy_pj + stoch * backend.sample_energy_pj,
        shaping_ops=stoch * backend.shaping_ops_per_sample,
    )


def _cost_error(name: str, cost: CostReport, config: SimConfig) -> DomainError:
    """The error for ``cost``'s total ``name`` past the float range.

    The counts are at fault, and the error names the total, if the same
    counts overflow it at the kind's default ``BackendConfig`` and the default
    element width too.  Else it names the charge the config raised above its
    default that adds the most to the total: ``read_energy_pj``,
    ``sample_energy_pj``, ``bytes_per_element`` or the side-bytes field."""
    det, stoch = cost.total_reads, cost.total_samples
    arch, backend = config.arch, config.backend
    base, width = BackendConfig(kind=backend.kind), ArchParams.bytes_per_element
    if name == "energy_pj":  # charge: (the count it is paid per, its value, its default)
        charges = {"read_energy_pj": (det, backend.read_energy_pj, base.read_energy_pj),
                   "sample_energy_pj": (stoch, backend.sample_energy_pj, base.sample_energy_pj)}
    else:
        charges = {"bytes_per_element": (det, arch.bytes_per_element, width)}
        if backend.side_bytes_name is not None:
            charges[backend.side_bytes_name] = (stoch, backend.side_bytes_per_sample, base.side_bytes_per_sample)
    raised = [(count * value, charge) for charge, (count, value, default) in charges.items() if value > default]
    at_defaults = _cost(det, stoch, SimConfig(arch=replace(arch, bytes_per_element=width), backend=base))
    if not raised or getattr(at_defaults, name) == math.inf:
        return DomainError(f"the cost report's {name} is past the float range", name)
    charge = max(raised)[1]
    return DomainError(f"the cost report's {name} is past the float range at {charge} = {charges[charge][1]!r}",
                       charge)


def run(workload: WorkloadSpec, config: SimConfig) -> SimResult:
    """Execute one workload; pure function of (workload, config).

    The point goes through ``_evaluate``'s numpy calls on one-element
    columns, so to evaluate many points call ``sweep`` once.  A cost past
    the float range raises ``DomainError`` naming the charge the config set
    or, if the counts overflow at the default charges too, the cost field."""
    if workload.total_accesses < 1:
        raise DegenerateWorkloadError(f"workload {workload.name!r} has no accesses to simulate")
    elapsed, phi, beta, regime = (column.item() for column in _evaluate(
        workload.total_accesses, [workload.stoch_accesses], [workload.n_ops], [config]))
    cost = _cost(workload.det_accesses, workload.stoch_accesses, config)
    for name in ("bytes_moved", "energy_pj"):  # float products of finite counts and charges
        if getattr(cost, name) == math.inf:
            raise _cost_error(name, cost, config)
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


def _grid_configs(config: SimConfig, grid: Dict[str, Sequence]) -> List[SimConfig]:
    """Every (beta_rand, backend, mode) config of the grid, in row order.
    Each arch and each backend is built once."""
    archs = [config.arch] if "beta_rand" not in grid else []
    for beta_rand in grid.get("beta_rand", []):
        require_finite("beta_rand", beta_rand, 0.0, math.inf, "()")  # float() takes True and "1e9"
        archs.append(replace(config.arch, beta_rand=float(beta_rand)))
    backends = []
    for value in grid.get("backend", [config.backend]):
        if isinstance(value, BackendConfig):
            backends.append(value)
        elif value in BACKEND_KINDS:
            backends.append(BackendConfig.for_kind(value, config.backend))
        else:
            raise DomainError(f"invalid backend grid value {value!r}")
    return [SimConfig(arch=arch, backend=backend, mode=mode) for arch in archs
            for backend in backends for mode in grid.get("mode", [config.mode])]


def sweep(
    config: SimConfig,
    grid: Dict[str, Sequence],
    workload: Optional[WorkloadSpec] = None,
    base_accesses: int = 1_000_000,
) -> SweepTable:
    """Cartesian sweep over grid dimensions, deterministic row order.

    Grid keys: ``alpha``, ``ai`` (synthesize/override the workload),
    ``beta_rand`` (the arch's one entropy rate, which times every backend
    but coupled_pcim),
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
    _floats([base_accesses], "base_accesses")  # as the grid's alpha and ai multiply it

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
    results = _evaluate(total, stochs, ops, configs)  # which checks the counts before they are divided

    columns = {
        "alpha": np.array([s / total for s in stochs])[:, None, None],
        "ai": np.array([n / total for n in ops])[None, :, None],
    }
    per_config = [(cfg.arch.beta_rand, cfg.backend.kind, cfg.mode, *backend_effective_rates(cfg))
                  for cfg in configs]  # the configs' own values, ints included
    columns.update(zip(("beta_rand", "backend", "mode", "beta_data_eff", "beta_rand_eff"),
                       np.array(per_config, dtype=object).T[:, None, None, :]))
    columns.update(zip(_RESULT_FIELDS, results))
    return SweepTable(columns=columns, shape=(len(stochs), len(ops), len(configs)))
