"""Rate-based (fluid) execution of workloads against an architecture + backend.

Two composition modes:

* ``serialized`` — deterministic and stochastic access streams share one
  serial pathway; total access time is the sum of their service times.
  This reproduces the harmonic-mean analytic model exactly and is the
  validation target.
* ``overlapped``  — per-resource max: compute, data traffic and entropy
  generation proceed concurrently.  A labeled extension, never conflated
  with the serialized model.

Backend cost translation (``backend_effective_rates``) folds per-sample
side traffic into a single effective entropy rate so the analytic model and
the simulator agree exactly:

* von_neumann           — per sample: 1 raw draw at rng_rate plus transport
  bytes across the data bus; folded rate = 1/(1/rng + transport/beta_data).
  Shaping arithmetic is additionally charged against compute.
* coupled_pcim          — sampling rides the array access path:
  beta_rand_eff = beta_data.
* decoupled_near_memory — entropy written back through the data path:
  folded rate = 1/(1/rng + writeback/beta_data).
* decoupled_in_memory   — lanes scale the entropy path:
  beta_rand_eff = parallelism * rng_rate.

Simulation is counts divided by capacities -- no queueing, caching or DRAM
timing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .distribution_shaping import ShapingPipelineSpec
from .errors import DegenerateWorkloadError, DomainError
from .perf_model import ArchParams, RegimeLabel
from .probabilistic_memory import (
    BACKEND_KINDS,
    KIND_COUPLED_PCIM,
    KIND_DECOUPLED_IN_MEMORY,
    KIND_DECOUPLED_NEAR_MEMORY,
    KIND_VON_NEUMANN,
    BackendConfig,
    CostReport,
)
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
    shaping: Optional[ShapingPipelineSpec] = None  # overrides the backend pipeline
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")

    @property
    def shaping_ops_per_sample(self) -> int:
        """Digital shaping arithmetic per sample; only the von Neumann RNG
        pipeline pays it, in-memory backends sample without one."""
        if self.backend.kind != KIND_VON_NEUMANN:
            return 0
        if self.shaping is not None:
            return self.shaping.ops_per_sample
        return self.backend.shaping_ops_per_sample

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


def _extra_data_elements_per_sample(config: SimConfig) -> float:
    """Data-path elements each stochastic sample drags across the bus."""
    backend = config.backend
    bpe = config.arch.bytes_per_element
    if backend.kind == KIND_VON_NEUMANN:
        return backend.transport_bytes_per_sample / bpe
    if backend.kind == KIND_DECOUPLED_NEAR_MEMORY:
        return backend.writeback_bytes_per_sample / bpe
    return 0.0


def _raw_entropy_rate(config: SimConfig) -> float:
    """Entropy path rate before folding in side traffic, samples/second."""
    backend = config.backend
    if backend.kind == KIND_COUPLED_PCIM:
        return config.arch.beta_data
    if backend.kind == KIND_DECOUPLED_IN_MEMORY:
        return backend.parallelism * backend.rng_rate
    return backend.rng_rate


def backend_effective_rates(config: SimConfig) -> Tuple[float, float]:
    """(beta_data_eff, beta_rand_eff) for the analytic model.

    beta_rand_eff folds each sample's side traffic serially into the
    entropy rate, so plugging these rates into the harmonic model
    reproduces the serialized simulator exactly.
    """
    beta_data = config.arch.beta_data
    raw = _raw_entropy_rate(config)
    extra = _extra_data_elements_per_sample(config)
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
    shaping = config.shaping_ops_per_sample  # nonzero only on von_neumann
    ops_demand = workload.n_ops + shaping * stoch
    extra = _extra_data_elements_per_sample(config)
    raw_rate = _raw_entropy_rate(config)

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
    cfg = SimConfig(arch=arch, backend=backend, mode=mode,
                    shaping=config.shaping, seed=config.seed)
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
    jobs: int = 1,
) -> List[SweepRow]:
    """Cartesian sweep over grid dimensions, deterministic row order.

    Grid keys: ``alpha``, ``ai`` (synthesize/override the workload),
    ``beta_rand`` (retimes both the analytic rate and the backend RNG),
    ``backend`` (kind names or configs), ``mode``.  Dimensions absent from
    the grid stay at the base config / workload values.  Rows are ordered
    by grid position (row-major over the canonical dimension order).  Points
    are evaluated one after another; ``jobs`` must be >= 1 and selects
    nothing.
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
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs!r}")

    if workload is None:
        workload = _synthetic_workload(0.5, 2.0, base_accesses)

    dims = [d for d in SWEEP_DIMENSIONS if d in grid]
    return [
        _evaluate_point(dict(zip(dims, combo)), config, workload, base_accesses)
        for combo in itertools.product(*(grid[d] for d in dims))
    ]
