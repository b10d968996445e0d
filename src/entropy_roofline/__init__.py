"""entropy-roofline: probabilistic-memory throughput model, simulator and
statistical fidelity toolkit."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AddressError,
    CellTypeError,
    ConfigError,
    DegenerateWorkloadError,
    DomainError,
    EntropyRooflineError,
    TraceParseError,
    VarianceRangeError,
)
from .perf_model import (  # noqa: F401
    ArchParams,
    RegimeLabel,
    bandwidth_compression,
    classify_regime,
    crossover_alpha,
    effective_beta,
    roofline_curve,
    system_throughput,
)
from .entropy_sources import (  # noqa: F401
    EntropyStream,
    MismatchArray,
    NonidealitySpec,
    SourceHandle,
    SourceSpec,
    create_source,
    mismatch_array,
    pelgrom_sigma,
    thermal_sigma,
)
from .distribution_shaping import (  # noqa: F401
    InverseCdfTable,
    ShapingPipelineSpec,
    bernoulli_from_uniform,
    box_muller,
    clt_accumulate,
    run_pipeline,
)
from .probabilistic_memory import (  # noqa: F401
    BackendConfig,
    CostReport,
    DistributionSpec,
    PMemArray,
    load_array_csv,
    save_array_csv,
)
from .workload import (  # noqa: F401
    TraceRecord,
    WorkloadSpec,
    bnn_layer,
    conv_layer,
    load_trace,
    mc_estimator,
    save_trace,
)
from .simulator import (  # noqa: F401
    SimConfig,
    SimResult,
    SweepTable,
    backend_effective_rates,
    run,
    sweep,
)
from .fidelity import (  # noqa: F401
    FidelityConfig,
    FidelityReport,
    autocorrelation,
    fidelity_report,
    ks_test,
    min_entropy,
    moments,
)
