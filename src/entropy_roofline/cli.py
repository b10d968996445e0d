"""Command-line entry point.

Subcommands: ``roofline`` (analytic curve CSV), ``simulate`` (one workload
to a SimResult JSON), ``fidelity`` (FidelityReport JSON), ``gen-trace``
(workload expansion to a trace CSV) and ``sweep`` (grid of simulations to
CSV).  All outputs are deterministic functions of (flags, config files,
seed); CSV files start with a versioned schema comment line.

Exit codes: 0 success, 2 flag/argument error, 3 config/grid validation
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields as dc_fields, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .distribution_shaping import ShapingPipelineSpec
from .entropy_sources import NonidealitySpec
from .errors import (
    ConfigError,
    DomainError,
    EntropyRooflineError,
    TraceParseError,
    parse_number,
    require_int,
)
from .fidelity import FidelityConfig, fidelity_report
from .perf_model import ArchParams, roofline_curve
from .probabilistic_memory import BACKEND_KINDS, BackendConfig, DistributionSpec
from .simulator import MODES, SimConfig, sweep as run_sweep, run as run_sim
from .workload import (
    bnn_layer,
    bnn_trace,
    conv_layer,
    conv_trace,
    load_trace,
    mc_estimator,
    mc_trace,
    save_trace,
)

SEED_ENV_VAR = "ENTROPY_ROOFLINE_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4

_WORKLOAD_DEFAULT_SHAPE = {
    "bnn": (128, 128, 1),
    "conv": (64, 64, 3, 32, 32, 1),
    "conv-stoch": (64, 64, 3, 32, 32, 1),
    "mc": (1_000_000, 4),
}


# ------------------------------------------------------------------------
# Configuration documents
# ------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigDocument:
    """Validated experiment configuration (JSON on disk)."""

    arch: ArchParams
    backend: BackendConfig  # its shaping is the config's, whatever the kind
    nonideality: NonidealitySpec
    seed: int = 0
    mode: str = "serialized"

    @classmethod
    def default(cls) -> "ConfigDocument":
        return cls(
            arch=ArchParams.default(),
            backend=BackendConfig.von_neumann(),
            nonideality=NonidealitySpec(),
        )


_ARCH_KEYS = {f.name for f in dc_fields(ArchParams)}
_BACKEND_KEYS = {f.name for f in dc_fields(BackendConfig)} - {"shaping"}
_SHAPING_KEYS = {f.name for f in dc_fields(ShapingPipelineSpec)}
_NONIDEALITY_KEYS = {f.name for f in dc_fields(NonidealitySpec)}
_TOP_KEYS = {"arch", "backend", "shaping", "nonideality", "seed", "mode"}


def _load_section(doc: Dict, section: str, allowed: set, build: Callable):
    """``build(payload)`` for the ``section`` object of ``doc`` ({} if absent).

    Unknown keys fail with their dotted path; a value the component rejects,
    out of its domain or of the wrong JSON type, fails with the section name.
    """
    payload = doc.get(section, {})
    if not isinstance(payload, dict):
        raise ConfigError(section, f"expected an object, got {type(payload).__name__}")
    for key in payload:
        if key not in allowed:
            raise ConfigError(f"{section}.{key}", "unknown key")
    try:
        return build(payload)
    except (DomainError, TypeError) as exc:
        raise ConfigError(section, str(exc)) from exc


def parse_config(doc: Dict) -> ConfigDocument:
    """Build a ConfigDocument from a parsed JSON object.

    Unknown keys are rejected with their dotted path; all component
    invariants are enforced on load.
    """
    if not isinstance(doc, dict):
        raise ConfigError("<root>", f"expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown key")

    defaults = ConfigDocument.default()
    arch = _load_section(doc, "arch", _ARCH_KEYS, lambda kw: replace(defaults.arch, **kw))
    shaping = _load_section(doc, "shaping", _SHAPING_KEYS, lambda kw: ShapingPipelineSpec(
        **{"method": defaults.backend.shaping.method, **kw}))

    # the shaping section rides on every kind, so a switch to von_neumann keeps it
    backend = _load_section(doc, "backend", _BACKEND_KEYS, lambda kw: BackendConfig(
        **{"kind": defaults.backend.kind, **kw, "shaping": shaping}))
    nonideality = _load_section(doc, "nonideality", _NONIDEALITY_KEYS,
                                lambda kw: NonidealitySpec(**kw))

    seed = doc.get("seed", 0)
    try:
        require_int("seed", seed)
    except DomainError as exc:
        raise ConfigError("seed", str(exc)) from exc
    mode = doc.get("mode", "serialized")
    if mode not in MODES:
        raise ConfigError("mode", f"expected one of {MODES}, got {mode!r}")

    return ConfigDocument(
        arch=arch, backend=backend, nonideality=nonideality, seed=seed, mode=mode,
    )


def load_config(path: Optional[str]) -> ConfigDocument:
    if path is None:
        return ConfigDocument.default()
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<root>", f"invalid JSON: {exc}") from exc
    return parse_config(doc)


# ------------------------------------------------------------------------
# Output helpers
# ------------------------------------------------------------------------


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv_text(schema: str, columns: Dict[str, List[str]]) -> str:
    """CSV of columns of formatted cells, one column per field."""
    major_minor = ".".join(__version__.split(".")[:2])
    lines = [f"# entropy-roofline v{major_minor} schema={schema}", ",".join(columns)]
    lines += map(",".join, zip(*columns.values()))
    return "\n".join(lines) + "\n"


def _cells(values: np.ndarray, shape: Sequence[int]) -> List[str]:
    """``values`` broadcast to ``shape`` as CSV cells, a number by its repr and a label as it
    is: each distinct float formatted once, each other stored value once (``1 == 1.0``)."""
    flat, inverse = values.ravel(), slice(None)
    if values.dtype.kind == "f":  # keyed on the bits, as -0.0 == 0.0 and NaN != NaN
        flat, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    text = [v if isinstance(v, str) else repr(v) for v in flat.view(values.dtype).tolist()]
    return np.broadcast_to(np.array(text, dtype=object)[inverse].reshape(values.shape), shape).ravel().tolist()


def _json_text(payload: Dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _resolve_seed(flag_seed: Optional[int], config_seed: int) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:  # ASCII digits after an optional "-", as the package writes an int
            return -parse_number(env[1:]) if env[:1] == "-" else parse_number(env)
        except DomainError as exc:
            raise ConfigError(SEED_ENV_VAR, f"not an integer: {env!r}") from exc
    return config_seed


def _parse_floats(parser: argparse.ArgumentParser, flag: str, text: str) -> List[float]:
    if not text.strip():
        parser.error(f"{flag}: needs at least one value")
    try:  # an empty item is as wrong as any other non-number
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        parser.error(f"{flag}: expected a comma-separated list of numbers, got {text!r}")


def _workload(parser: argparse.ArgumentParser, name: str, shape_text: Optional[str],
              trace: bool = False):
    """Generator ``name`` at ``--shape`` ``shape_text``: its WorkloadSpec, or
    with ``trace`` its trace records.  Any bad shape is a ``--shape`` usage
    error."""
    shape = default = _WORKLOAD_DEFAULT_SHAPE[name]
    if shape_text is not None:
        try:
            shape = tuple(parse_number(tok) for tok in shape_text.split(","))
        except DomainError as exc:
            parser.error(f"--shape: {exc} in {shape_text!r}")
        if len(shape) != len(default):
            parser.error(f"--shape: workload {name!r} takes {len(default)} integers, got {len(shape)}")
    try:
        if name == "bnn":
            return bnn_trace(*shape) if trace else bnn_layer(*shape)
        if name == "mc":
            return mc_trace(*shape) if trace else mc_estimator(*shape)
        stochastic = name == "conv-stoch"
        if trace:
            return conv_trace(*shape, stochastic_weights=stochastic)
        return conv_layer(*shape, stochastic_weights=stochastic)
    except DomainError as exc:
        parser.error(f"--shape: {exc}")


# ------------------------------------------------------------------------
# Subcommands
# ------------------------------------------------------------------------

# roofline's flag for each parameter that ArchParams or roofline_curve checks
_ROOFLINE_FLAGS = {
    "pi": "--pi", "beta_data": "--beta-data", "beta_rand": "--beta-rand",
    "alpha": "--alpha", "ai_min": "--ai-min", "ai_max": "--ai-max", "n_points": "--points",
}


def cmd_roofline(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    alphas = _parse_floats(parser, "--alpha", args.alpha)
    config = load_config(args.config)
    overrides = {name: getattr(args, name) for name in ("pi", "beta_data", "beta_rand")
                 if getattr(args, name) is not None}
    try:  # the library checks every flag value; a rejected one names its flag
        arch = replace(config.arch, **overrides)
        curves = [roofline_curve(arch, alpha, args.ai_min, args.ai_max, args.points) for alpha in alphas]
    except DomainError as exc:
        parser.error(f"{_ROOFLINE_FLAGS[exc.name]}: {exc}")
    # a row per curve; alpha and beta_eff stay as given, so an int beta_eff keeps its repr
    columns = {name: _cells(np.stack([getattr(c, name) for c in curves]) if name in ("ai", "phi", "regime")
                            else np.array([[getattr(c, name)] for c in curves], dtype=object),
                            (len(curves), args.points)) for name in ("alpha", "ai", "beta_eff", "phi", "regime")}
    _emit(_csv_text("roofline", columns), args.out)
    return EXIT_OK


def cmd_simulate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.trace is None:
        workload = _workload(parser, args.workload or "bnn", args.shape)
    else:
        for flag, value in (("--workload", args.workload), ("--shape", args.shape)):
            if value is not None:
                parser.error(f"{flag}: cannot be combined with --trace")
        _, workload = load_trace(args.trace)

    backend = config.backend
    if args.backend is not None:
        backend = BackendConfig.for_kind(args.backend, backend)
    mode = args.mode if args.mode is not None else config.mode
    seed = _resolve_seed(args.seed, config.seed)

    result = run_sim(workload, SimConfig(arch=config.arch, backend=backend, mode=mode))
    payload = {
        "workload": workload.name,
        "backend": backend.kind,
        "mode": mode,
        "seed": seed,
        "result": result.to_dict(),
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_fidelity(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if not (1_000 <= args.samples <= 100_000_000):
        parser.error(f"--samples: must lie in [1e3, 1e8], got {args.samples!r}")
    config = load_config(args.config)
    seed = _resolve_seed(args.seed, config.seed)
    fid_config = FidelityConfig(seed=seed, nonideality=config.nonideality)
    if args.target == "normal":
        target = DistributionSpec.gaussian(0.0, 1.0)
    else:
        target = "uniform"
    report = fidelity_report(config.backend.shaping, args.samples, target, fid_config)
    payload = {
        "pipeline": config.backend.shaping.method,
        "target": args.target,
        "seed": seed,
        "report": report.to_dict(),
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_gen_trace(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    records = _workload(parser, args.workload, args.shape, trace=True)
    save_trace(records, sys.stdout if args.out is None else args.out)
    return EXIT_OK


def cmd_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.jobs < 1:
        parser.error(f"--jobs: must be >= 1, got {args.jobs!r}")
    if args.shape is not None and args.workload is None:
        parser.error("--shape: needs --workload")
    config = load_config(args.config)
    with open(args.grid) as fh:
        try:
            grid = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<grid>", f"invalid JSON: {exc}") from exc
    if not isinstance(grid, dict):
        raise ConfigError("<grid>", "grid document must be a JSON object")
    for dim, values in grid.items():
        if not isinstance(values, list):
            raise ConfigError("<grid>", f"sweep dimension {dim!r} must be a JSON array, got {values!r}")
    workload = None if args.workload is None else _workload(parser, args.workload, args.shape)
    _resolve_seed(args.seed, config.seed)  # validated as on every command; a sweep draws nothing
    sim_config = SimConfig(arch=config.arch, backend=config.backend, mode=config.mode)
    try:
        table = run_sweep(sim_config, grid, workload=workload)
    except DomainError as exc:
        raise ConfigError("<grid>", str(exc)) from exc
    columns = {name: _cells(values, table.shape) for name, values in table.columns.items()}
    _emit(_csv_text("sweep", columns), args.out)
    return EXIT_OK


# ------------------------------------------------------------------------
# Parser assembly
# ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropy-roofline",
        description="Probabilistic-memory throughput model, simulator and fidelity toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roofline", help="emit a roofline curve CSV")
    p.add_argument("--alpha", default="0", help="comma-separated stochastic fractions in [0,1]")
    p.add_argument("--ai-min", type=float, default=0.01)
    p.add_argument("--ai-max", type=float, default=1e4)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--config", default=None, help="JSON config path")
    p.add_argument("--pi", type=float, default=None, help="compute rate override, ops/s")
    p.add_argument("--beta-data", type=float, default=None, help="data rate override, elements/s")
    p.add_argument("--beta-rand", type=float, default=None, help="entropy rate override, samples/s")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("simulate", help="run one workload, emit a SimResult JSON")
    p.add_argument("--config", default=None)
    p.add_argument("--workload", choices=sorted(_WORKLOAD_DEFAULT_SHAPE), default=None,
                   help="workload generator (default bnn)")
    p.add_argument("--shape", default=None, help="comma-separated workload shape")
    p.add_argument("--trace", default=None, help="trace CSV instead of a generator")
    p.add_argument("--backend", choices=BACKEND_KINDS, default=None)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fidelity", help="statistical battery over the configured pipeline")
    p.add_argument("--config", default=None)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--target", choices=("normal", "uniform"), default="normal")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("gen-trace", help="expand a workload generator into a trace CSV")
    p.add_argument("--workload", choices=sorted(_WORKLOAD_DEFAULT_SHAPE), required=True)
    p.add_argument("--shape", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("sweep", help="simulate a parameter grid, emit a CSV table")
    p.add_argument("--config", default=None)
    p.add_argument("--grid", required=True, help="JSON grid document")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; the grid is evaluated in one process")
    p.add_argument("--workload", choices=sorted(_WORKLOAD_DEFAULT_SHAPE), default=None)
    p.add_argument("--shape", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except ConfigError as exc:
        print(f"entropy-roofline: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceParseError as exc:
        print(f"entropy-roofline: trace error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"entropy-roofline: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EntropyRooflineError as exc:
        print(f"entropy-roofline: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
