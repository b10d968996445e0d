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
import io
import json
import os
import sys
from dataclasses import dataclass, fields as dc_fields, replace
from typing import Callable, Dict, List, Optional, Sequence

from . import __version__
from .distribution_shaping import ShapingPipelineSpec
from .entropy_sources import NonidealitySpec
from .errors import (
    ConfigError,
    DomainError,
    EntropyRooflineError,
    TraceParseError,
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
    backend: BackendConfig
    shaping: ShapingPipelineSpec
    nonideality: NonidealitySpec
    seed: int = 0
    mode: str = "serialized"

    @classmethod
    def default(cls) -> "ConfigDocument":
        shaping = ShapingPipelineSpec(method="box_muller")
        return cls(
            arch=ArchParams.default(),
            backend=BackendConfig.von_neumann(shaping=shaping),
            shaping=shaping,
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
        **{"method": defaults.shaping.method, **kw}))

    # the shaping section rides on every kind, so a switch to von_neumann keeps it
    backend = _load_section(doc, "backend", _BACKEND_KEYS, lambda kw: BackendConfig(
        **{"kind": defaults.backend.kind, **kw, "shaping": shaping}))
    nonideality = _load_section(doc, "nonideality", _NONIDEALITY_KEYS,
                                lambda kw: NonidealitySpec(**kw))

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed", f"expected an integer, got {seed!r}")
    mode = doc.get("mode", "serialized")
    if mode not in MODES:
        raise ConfigError("mode", f"expected one of {MODES}, got {mode!r}")

    return ConfigDocument(
        arch=arch, backend=backend, shaping=shaping,
        nonideality=nonideality, seed=seed, mode=mode,
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv_text(schema: str, fieldnames: Sequence[str], rows: List[Dict]) -> str:
    major_minor = ".".join(__version__.split(".")[:2])
    buf = io.StringIO()
    buf.write(f"# entropy-roofline v{major_minor} schema={schema}\n")
    buf.write(",".join(fieldnames) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(row[f]) for f in fieldnames) + "\n")
    return buf.getvalue()


def _json_text(payload: Dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _resolve_seed(flag_seed: Optional[int], config_seed: int) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(SEED_ENV_VAR, f"not an integer: {env!r}") from exc
    return config_seed


def _parse_floats(parser: argparse.ArgumentParser, flag: str, text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
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
            shape = tuple(int(tok) for tok in shape_text.split(","))
        except ValueError:
            parser.error(f"--shape: expected integers, got {shape_text!r}")
        if len(shape) != len(default):
            parser.error(
                f"--shape: workload {name!r} takes {len(default)} integers, got {len(shape)}"
            )
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


def cmd_roofline(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    alphas = _parse_floats(parser, "--alpha", args.alpha)
    if not alphas:
        parser.error("--alpha: needs at least one value")
    for a in alphas:
        if not (0.0 <= a <= 1.0):
            parser.error(f"--alpha: values must lie in [0, 1], got {a!r}")
    if not (0.0 < args.ai_min < args.ai_max):
        parser.error(
            f"--ai-min/--ai-max: need 0 < ai-min < ai-max, got {args.ai_min!r}, {args.ai_max!r}"
        )
    if args.points < 2:
        parser.error(f"--points: must be >= 2, got {args.points!r}")

    config = load_config(args.config)
    arch = config.arch
    if args.pi is not None or args.beta_data is not None or args.beta_rand is not None:
        arch = ArchParams(
            pi=args.pi if args.pi is not None else arch.pi,
            beta_data=args.beta_data if args.beta_data is not None else arch.beta_data,
            beta_rand=args.beta_rand if args.beta_rand is not None else arch.beta_rand,
            bytes_per_element=arch.bytes_per_element,
        )

    rows = []
    for alpha in alphas:
        for point in roofline_curve(arch, alpha, args.ai_min, args.ai_max, args.points):
            rows.append({
                "alpha": point.alpha,
                "ai": point.ai,
                "beta_eff": point.beta_eff,
                "phi": point.phi,
                "regime": str(point.regime),
            })
    _emit(_csv_text("roofline", ("alpha", "ai", "beta_eff", "phi", "regime"), rows), args.out)
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
    report = fidelity_report(config.shaping, args.samples, target, fid_config)
    payload = {
        "pipeline": config.shaping.method,
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
    workload = None if args.workload is None else _workload(parser, args.workload, args.shape)
    _resolve_seed(args.seed, config.seed)  # validated as on every command; a sweep draws nothing
    sim_config = SimConfig(arch=config.arch, backend=config.backend, mode=config.mode)
    try:
        rows = run_sweep(sim_config, grid, workload=workload)
    except DomainError as exc:
        raise ConfigError("<grid>", str(exc)) from exc

    fieldnames = (
        "alpha", "ai", "beta_rand", "backend", "mode",
        "beta_data_eff", "beta_rand_eff",
        "elapsed_time", "achieved_phi", "achieved_beta", "regime",
    )
    csv_rows = []
    for row in rows:
        record = dict(row.params)
        record["elapsed_time"] = row.result.elapsed_time
        record["achieved_phi"] = row.result.achieved_phi
        record["achieved_beta"] = row.result.achieved_beta
        record["regime"] = str(row.result.regime_observed)
        csv_rows.append(record)
    _emit(_csv_text("sweep", fieldnames, csv_rows), args.out)
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
                   help="accepted for compatibility; points run serially")
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
