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
data-path traffic and ``shaping_ops_per_sample`` of compute.
``backend_effective_rates`` folds the side traffic serially into one
effective entropy rate, 1/(1/raw + side_elements/beta_data), so the analytic
model and the serialized simulator agree exactly.  Unlike ``PMemArray``, the
simulator does not charge a decoupled draw's parameter read
(``reads_parameters_per_draw``).

Simulation is counts divided by capacities -- no queueing, caching or DRAM
timing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DegenerateWorkloadError, DomainError
from .perf_model import ArchParams, RegimeLabel
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
        return {
            "elapsed_time": self.elapsed_time,
            "achieved_phi": self.achieved_phi,
            "achieved_beta": self.achieved_beta,
            "cost": self.cost.to_dict(),
            "regime_observed": str(self.regime_observed),
            "alpha": self.alpha,
            "ai": self.ai,
        }


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


def run(workload: WorkloadSpec, config: SimConfig) -> SimResult:
    """Execute one workload; pure function of (workload, config)."""
    if workload.total_accesses < 1:
        raise DegenerateWorkloadError(
            f"workload {workload.name!r} has no accesses to simulate"
        )
    arch = config.arch
    backend = config.backend
    det = workload.det_accesses
    stoch = workload.stoch_accesses
    shaping = backend.shaping_ops_per_sample
    ops_demand = workload.n_ops + shaping * stoch
    extra = backend.side_bytes_per_sample / arch.bytes_per_element  # data-path elements
    raw_rate = backend.raw_entropy_rate(arch.beta_data)

    t_compute = ops_demand / arch.pi
    t_data = det / arch.beta_data
    t_transport = stoch * extra / arch.beta_data
    t_entropy = stoch / raw_rate

    if config.mode == MODE_SERIALIZED:
        elapsed = max(t_compute, t_data + t_transport + t_entropy)
    else:
        elapsed = max(t_compute, t_data + t_transport, t_entropy)

    # Regime from the simulator's own serial time decomposition; provably
    # agrees with the analytic classifier under the folded rates.
    t_access_serial = t_data + t_transport + t_entropy
    if workload.n_ops / arch.pi >= t_access_serial:
        regime = RegimeLabel.COMPUTE_BOUND
    elif t_entropy + t_transport >= t_data:
        regime = RegimeLabel.ENTROPY_BOUND
    else:
        regime = RegimeLabel.DATA_BOUND

    cost = CostReport(
        total_reads=det,
        total_writes=0,
        total_samples=stoch,
        bytes_moved=(det + stoch * extra) * arch.bytes_per_element,
        entropy_bits_consumed=stoch * 32,
        energy_pj=det * backend.read_energy_pj + stoch * backend.sample_energy_pj,
        shaping_ops=stoch * shaping,
    )
    return SimResult(
        elapsed_time=elapsed,
        achieved_phi=workload.n_ops / elapsed,
        achieved_beta=workload.total_accesses / elapsed,
        cost=cost,
        regime_observed=regime,
        alpha=workload.alpha(),
        ai=workload.ai(),
    )


# ------------------------------------------------------------------------
# Parameter sweeps
# ------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One grid point: the parameters applied and the result."""

    params: Dict[str, object]
    result: SimResult


def _synthetic_workload(alpha: float, ai: float, base_accesses: int) -> WorkloadSpec:
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    if not (ai > 0.0):
        raise DomainError(f"ai must be positive, got {ai!r}")
    stoch = round(alpha * base_accesses)
    det = base_accesses - stoch
    n_ops = max(1, round(ai * base_accesses))
    return WorkloadSpec(
        name=f"synthetic_a{alpha}_ai{ai}", n_ops=n_ops,
        det_accesses=det, stoch_accesses=stoch,
    )


def _evaluate_point(
    point: Dict[str, object],
    config: SimConfig,
    workload: WorkloadSpec,
    base_accesses: int,
) -> SweepRow:
    wl = workload
    if "alpha" in point or "ai" in point:
        alpha = point.get("alpha", workload.alpha())
        ai = point.get("ai", workload.ai())
        if not isinstance(alpha, (int, float)):
            raise DomainError(f"invalid alpha grid value {alpha!r}")
        if not isinstance(ai, (int, float)):
            raise DomainError(f"invalid ai grid value {ai!r}")
        wl = _synthetic_workload(float(alpha), float(ai), base_accesses)
    arch = config.arch
    backend = config.backend
    if "beta_rand" in point:
        beta_rand = point["beta_rand"]
        if not (isinstance(beta_rand, (int, float)) and beta_rand > 0):
            raise DomainError(f"invalid beta_rand grid value {beta_rand!r}")
        arch = replace(arch, beta_rand=float(beta_rand))
        backend = replace(backend, rng_rate=float(beta_rand))
    if "backend" in point:
        value = point["backend"]
        if isinstance(value, BackendConfig):
            backend = value
        elif value in BACKEND_KINDS:
            backend = BackendConfig.for_kind(value, backend)
        else:
            raise DomainError(f"invalid backend grid value {value!r}")
    mode = point.get("mode", config.mode)
    if mode not in MODES:
        raise DomainError(f"invalid mode grid value {mode!r}")
    cfg = SimConfig(arch=arch, backend=backend, mode=mode)
    bd_eff, br_eff = backend_effective_rates(cfg)
    result = run(wl, cfg)
    params = {
        "alpha": wl.alpha(),
        "ai": wl.ai(),
        "beta_rand": arch.beta_rand,
        "backend": backend.kind,
        "mode": mode,
        "beta_data_eff": bd_eff,
        "beta_rand_eff": br_eff,
    }
    return SweepRow(params=params, result=result)


def sweep(
    config: SimConfig,
    grid: Dict[str, Sequence],
    workload: Optional[WorkloadSpec] = None,
    base_accesses: int = 1_000_000,
) -> List[SweepRow]:
    """Cartesian sweep over grid dimensions, deterministic row order.

    Grid keys: ``alpha``, ``ai`` (synthesize/override the workload),
    ``beta_rand`` (retimes both the analytic rate and the backend RNG),
    ``backend`` (kind names or configs), ``mode``.  Dimensions absent from
    the grid stay at the base config / workload values.  Rows are ordered
    by grid position (row-major over the canonical dimension order).  Points
    are evaluated one after another.
    """
    if not grid:
        raise DomainError("empty parameter grid")
    for dim, values in grid.items():
        if dim not in SWEEP_DIMENSIONS:
            raise DomainError(
                f"unknown sweep dimension {dim!r}; valid: {', '.join(SWEEP_DIMENSIONS)}"
            )
        if len(values) == 0:
            raise DomainError(f"sweep dimension {dim!r} has no values")

    if workload is None:
        workload = _synthetic_workload(0.5, 2.0, base_accesses)

    dims = [d for d in SWEEP_DIMENSIONS if d in grid]
    return [
        _evaluate_point(dict(zip(dims, combo)), config, workload, base_accesses)
        for combo in itertools.product(*(grid[d] for d in dims))
    ]
