"""The four benchmark workloads.

Each workload is built in a fresh process from the benchmark seed (its set-up),
runs once (``run``, the timed call) and then checks its own outputs
(``check``).  With a ``Tracer`` the same work runs with spans around the
calls into each package module; see README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time

import numpy as np

import entropy_roofline.cli as cli
from entropy_roofline.distribution_shaping import ShapingPipelineSpec, run_pipeline, uniforms_needed
from entropy_roofline.entropy_sources import EntropyStream, SourceSpec, create_source
from entropy_roofline.fidelity import (
    FidelityConfig,
    FidelityReport,
    autocorrelation,
    ks_critical_value,
    ks_test,
    min_entropy,
    moments,
    symbolize,
    target_cdf,
)
from entropy_roofline.perf_model import ArchParams, system_throughput
from entropy_roofline.probabilistic_memory import BACKEND_KINDS, BackendConfig, DistributionSpec, PMemArray
from entropy_roofline.simulator import SimConfig, run as run_sim
from entropy_roofline.workload import WorkloadSpec, load_trace, mc_estimator

from tracing import patched


def _call_cli(argv):
    """Exit code of one CLI invocation (argparse errors exit via SystemExit)."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def _csv_rows(path):
    """Data rows of a CLI CSV (schema comment and header dropped)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class CliWorkload:
    """A workload made of CLI commands writing ``--out`` files.

    An untraced repetition runs the commands ``rounds`` times in its process,
    each round one timed unit, so that set-up is paid once per few seconds of
    measured work; every round must write the same bytes.
    """

    rounds = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.exit_codes = []

    def path(self, name):
        return os.path.join(self.workdir, name)

    def commands(self):
        raise NotImplementedError

    def out_paths(self):
        return [argv[argv.index("--out") + 1] for argv in self.commands()]

    def run(self, tracer=None):
        self.exit_codes += [_call_cli(argv) for argv in self.commands()]

    def digest(self):
        h = hashlib.sha256()
        for path in self.out_paths():
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def output_bytes(self):
        return sum(os.path.getsize(p) for p in self.out_paths())

    def check(self):
        return {"cli_exit_zero": all(code == 0 for code in self.exit_codes)}


# ------------------------------------------------------------------------
# fidelity-normal
# ------------------------------------------------------------------------

FIDELITY_SAMPLES = 3_000_000

# A KS test at significance 0.01 rejects about 1% of seeds of an ideal
# stream.  These are the seeds in [0, 160) whose 3e6-sample box_muller report
# fails it; the benchmark seed indexes the other 158, so ``ks_pass`` is an
# invariant of every run and a later change that flips it is caught.
KS_REJECTED_SEEDS = (44, 127)
FIDELITY_SEEDS = tuple(s for s in range(160) if s not in KS_REJECTED_SEEDS)


class FidelityNormal(CliWorkload):
    name = "fidelity-normal"
    rounds = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cli_seed = FIDELITY_SEEDS[seed % len(FIDELITY_SEEDS)]
        self.report = None  # set by the traced run, or read back by check()
        self.composed = False

    def items(self):
        return FIDELITY_SAMPLES

    def commands(self):
        return [["fidelity", "--samples", str(FIDELITY_SAMPLES), "--target", "normal",
                 "--seed", str(self.cli_seed), "--out", self.path("fidelity.json")]]

    def run(self, tracer=None):
        if tracer is None:
            super().run()
        else:
            self.composed = True
            self.report = self._composed_report(tracer)

    def _composed_report(self, tracer):
        """The stages of ``fidelity_report`` in its order, one span each."""
        spec = ShapingPipelineSpec(method="box_muller")
        config = FidelityConfig(seed=self.cli_seed)
        target = DistributionSpec.gaussian(0.0, 1.0)
        n = FIDELITY_SAMPLES
        source = create_source(SourceSpec.pseudo_uniform(seed=config.seed, stream_id=config.stream_id))
        with tracer.span("entropy_sources.draw_s"):
            u = source.draw(uniforms_needed(spec, n))
        with tracer.span("distribution_shaping.run_pipeline_s"):
            samples = run_pipeline(spec, u)[:n]
        with tracer.span("fidelity.moments_s"):
            mean, variance, skew, kurt = moments(samples)
        cdf = tracer.wrap(target_cdf(target), "fidelity.ks_cdf_s")
        with tracer.span("fidelity.ks_s"):
            ks_d, ks_ok = ks_test(samples, cdf, config.significance)
            ks_crit = ks_critical_value(n, config.significance)
        with tracer.span("fidelity.autocorr_s"):
            rho = autocorrelation(samples, config.max_lag)
        with tracer.span("fidelity.symbolize_s"):
            symbols = symbolize(samples, target, config.symbol_bits)
        with tracer.span("fidelity.min_entropy_s"):
            h_min = min_entropy(symbols)
        tracer.count("entropy_sources.words", u.shape[0])
        tracer.count("distribution_shaping.samples_shaped", samples.shape[0])
        return FidelityReport(
            n=n, mean=mean, variance=variance, skewness=skew, excess_kurtosis=kurt,
            ks_statistic=ks_d, ks_critical=ks_crit, ks_pass=ks_ok,
            autocorr=[float(v) for v in rho], min_entropy_per_sample=h_min,
            tail_truncation=None, degenerate=variance == 0.0,
        ).to_dict()

    def digest(self):
        return None if self.composed else super().digest()

    def output_bytes(self):
        return 0 if self.composed else super().output_bytes()

    def check(self):
        if self.composed:
            report, checks = self.report, {}
        else:
            checks = super().check()
            with open(self.path("fidelity.json")) as fh:
                report = json.load(fh)["report"]
            self.report = report
        numbers = [v for k, v in report.items() if k not in ("ks_pass", "degenerate", "autocorr", "tail_truncation")]
        numbers += report["autocorr"] or [None]
        checks["ks_pass"] = report["ks_pass"] is True
        checks["n_matches"] = report["n"] == FIDELITY_SAMPLES
        checks["fields_finite"] = all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers)
        return checks


# ------------------------------------------------------------------------
# model-grid
# ------------------------------------------------------------------------

GRID_ALPHAS = 41
GRID_AIS = 41
GRID_BETA_RANDS = 3
ROOFLINE_ALPHAS = 6
ROOFLINE_POINTS = 10_000

# simulator.run reports achieved_phi = n_ops / elapsed with elapsed at least
# n_ops / pi, so on a compute-bound row the value is pi after two roundings
# (one ulp above pi on some grids); more than that breaks the compute roof.
PHI_ROUNDING = 2 * sys.float_info.epsilon


class ModelGrid(CliWorkload):
    name = "model-grid"
    rounds = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        alphas = [0.0] + sorted(rng.uniform(0.0, 1.0, GRID_ALPHAS - 2).tolist()) + [1.0]
        self.ai_min = float(10 ** rng.uniform(-2.0, -1.0))
        self.ai_max = float(10 ** rng.uniform(3.0, 4.0))
        grid = {
            "alpha": alphas,
            "ai": np.geomspace(self.ai_min, self.ai_max, GRID_AIS).tolist(),
            "beta_rand": sorted((10 ** rng.uniform(8.0, 10.0, GRID_BETA_RANDS)).tolist()),
            "backend": list(BACKEND_KINDS),
            "mode": ["serialized", "overlapped"],
        }
        self.grid_rows = math.prod(len(v) for v in grid.values())
        self.roofline_alphas = [0.0] + sorted(rng.uniform(0.0, 1.0, ROOFLINE_ALPHAS - 1).tolist())
        with open(self.path("grid.json"), "w") as fh:
            json.dump(grid, fh)

    def items(self):
        return self.grid_rows + ROOFLINE_ALPHAS * ROOFLINE_POINTS

    def commands(self):
        return [
            ["sweep", "--grid", self.path("grid.json"), "--out", self.path("sweep.csv")],
            ["roofline", "--alpha", ",".join(repr(a) for a in self.roofline_alphas),
             "--ai-min", repr(self.ai_min), "--ai-max", repr(self.ai_max),
             "--points", str(ROOFLINE_POINTS), "--out", self.path("roofline.csv")],
        ]

    def run(self, tracer=None):
        if tracer is None:
            return super().run()
        with patched(
            cli,
            run_sweep=tracer.wrap(cli.run_sweep, "simulator.sweep_s", "simulator.points"),
            roofline_curve=tracer.wrap(cli.roofline_curve, "perf_model.roofline_curve_s", "perf_model.points"),
        ):
            super().run()

    def check(self):
        checks = super().check()
        pi = ArchParams.default().pi
        rows = _csv_rows(self.path("sweep.csv"))
        checks["sweep_rows_match_grid"] = len(rows) == self.grid_rows
        checks["achieved_phi_at_most_pi"] = all(float(r["achieved_phi"]) <= pi * (1 + PHI_ROUNDING) for r in rows)
        checks["roofline_rows_match"] = (
            len(_csv_rows(self.path("roofline.csv"))) == ROOFLINE_ALPHAS * ROOFLINE_POINTS
        )
        self.model_disagreements = sum(1 for r in rows if r["mode"] == "serialized" and _off_model(r, pi))
        return checks


def _off_model(row, pi):
    """A serialized sweep row whose achieved_phi is >1% off the analytic roofline."""
    arch = ArchParams(pi=pi, beta_data=float(row["beta_data_eff"]), beta_rand=float(row["beta_rand_eff"]))
    expected = system_throughput(float(row["ai"]), float(row["alpha"]), arch)
    return abs(float(row["achieved_phi"]) - expected) > 0.01 * expected


# ------------------------------------------------------------------------
# pmem-bnn-replay
# ------------------------------------------------------------------------

BNN_SHAPE = (128, 256, 4)  # n_in, n_out, batch
PASSES = 2
SIGMA_RANGE = (0.05, 0.2)  # inside coupled_pcim's default variance window
PRIMITIVES = ("write", "set_variance", "read", "read_distribution", "batch_sample")
COST_FIELDS = ("total_reads", "total_writes", "total_samples", "bytes_moved",
               "entropy_bits_consumed", "energy_pj", "shaping_ops")


def _primitive_ops(array):
    cost = array.cost_report()
    return cost.total_reads + cost.total_writes + cost.total_samples


class PmemBnnReplay:
    """A gen-trace bnn trace replayed as PASSES stochastic forward passes.

    Weights live in rows [0, n_in); the activations in and out live in the
    rows below them.  The trace's sample records become one batch_sample
    over every weight per pass, its read and write records become reads of
    the activations in and writes of the activations out.
    """

    name = "pmem-bnn-replay"

    def __init__(self, seed, workdir):
        self.seed = seed
        n_in, n_out, batch = BNN_SHAPE
        trace_path = os.path.join(workdir, "bnn.csv")
        shape = ",".join(map(str, BNN_SHAPE))
        if _call_cli(["gen-trace", "--workload", "bnn", "--shape", shape, "--out", trace_path]) != 0:
            raise RuntimeError("gen-trace bnn failed during set-up")
        records, _ = load_trace(trace_path)
        self.n_ops = sum(r.count for r in records if r.op == "compute")
        self.sample_addrs = [(r.row, r.col) for r in records if r.op == "sample" for _ in range(r.count)]
        n_reads = sum(r.count for r in records if r.op == "read")
        n_writes = sum(r.count for r in records if r.op == "write")
        act_rows = -(-n_reads // n_out)
        self.read_addrs = [(n_in + k // n_out, k % n_out) for k in range(n_reads)]
        self.write_addrs = [(n_in + act_rows + k // n_out, k % n_out) for k in range(n_writes)]
        rows = n_in + act_rows + -(-n_writes // n_out)

        # Weight mix: 3/4 gaussian, 1/8 bernoulli (dropout masks), 1/8 pruned.
        rng = np.random.default_rng(seed)
        cells = n_in * n_out
        family = np.repeat([0, 1, 2], [cells * 6 // 8, cells // 8, cells - cells * 7 // 8])
        family = rng.permutation(family)
        mu = rng.uniform(-1.0, 1.0, cells)
        sigma = rng.uniform(*SIGMA_RANGE, cells)
        p = rng.uniform(0.1, 0.9, cells)
        weights = []
        for k in range(cells):
            if family[k] == 0:
                spec = DistributionSpec.gaussian(float(mu[k]), float(sigma[k]))
            elif family[k] == 1:
                spec = DistributionSpec.bernoulli(float(p[k]))
            else:
                spec = DistributionSpec.point_mass(0.0)
            weights.append(((k // n_out, k % n_out), spec))
        gaussian = np.flatnonzero(family == 0)
        self.gaussian_cells = len(gaussian)
        self.bernoulli_cells = int(np.sum(family == 1))
        chosen = rng.choice(gaussian, len(gaussian) // 8, replace=False)
        self.variance_addrs = [(int(k) // n_out, int(k) % n_out) for k in np.sort(chosen)]
        self.new_sigmas = rng.uniform(*SIGMA_RANGE, (PASSES - 1, len(self.variance_addrs))).tolist()
        activations = rng.uniform(-1.0, 1.0, n_reads).tolist()

        self.arrays = {}
        for kind in BACKEND_KINDS:
            array = PMemArray(rows, n_out, getattr(BackendConfig, kind)())  # the kind's defaults
            for addr, spec in weights:
                array.write(addr, spec)
            for addr, value in zip(self.read_addrs, activations):
                array.write(addr, value)
            self.arrays[kind] = array
        self.results = {}

    def items(self):
        return sum(items for items, _ in self.units)

    def run(self, tracer=None):
        """Replay on every backend; each forward pass is one timed unit."""
        self.units = []
        for kind, array in self.arrays.items():
            self.results[kind] = self._replay(array, tracer)

    def _replay(self, array, tracer):
        ops = {name: getattr(array, name) for name in PRIMITIVES}
        if tracer is not None:
            ops = {name: tracer.wrap(fn, f"probabilistic_memory.{name}_s") for name, fn in ops.items()}
        n_in, n_out, batch = BNN_SHAPE
        stream = EntropyStream(seed=self.seed)
        before = array.cost_report()
        wear_before = array.endurance_map
        values, outputs = [], []
        for p in range(PASSES):
            ops_before, start = _primitive_ops(array), time.perf_counter()
            if p > 0:
                for addr, sigma in zip(self.variance_addrs, self.new_sigmas[p - 1]):
                    ops["read_distribution"](addr)
                    ops["set_variance"](addr, sigma)
            x = np.array([ops["read"](addr) for addr in self.read_addrs]).reshape(batch, n_in)
            sampled, _ = ops["batch_sample"](self.sample_addrs, stream)
            w = np.array(sampled).reshape(n_in, n_out, batch)
            y = np.einsum("bi,ijb->bj", x, w)
            for addr, value in zip(self.write_addrs, y.ravel().tolist()):
                ops["write"](addr, value)
            self.units.append((_primitive_ops(array) - ops_before, time.perf_counter() - start))
            values.append(w)
            outputs.append(y)
        after = array.cost_report()
        return {
            "cost": {f: getattr(after, f) - getattr(before, f) for f in COST_FIELDS},
            "stream_words": stream.position,
            "max_write_count": int((array.endurance_map - wear_before).max()),
            "values": np.stack(values),
            "outputs": np.stack(outputs),
        }

    def simulated(self, kind):
        """simulator.run on the replay's access counts, same backend."""
        cost = self.results[kind]["cost"]
        spec = WorkloadSpec(
            name="bnn_replay", n_ops=PASSES * self.n_ops,
            det_accesses=cost["total_reads"] + cost["total_writes"],
            stoch_accesses=cost["total_samples"],
        )
        return run_sim(spec, SimConfig(arch=ArchParams.default(), backend=self.arrays[kind].backend))

    def digest(self):
        h = hashlib.sha256()
        for kind, r in self.results.items():
            h.update(r["values"].tobytes())
            h.update(r["outputs"].tobytes())
            h.update(json.dumps(r["cost"], sort_keys=True).encode())
        return h.hexdigest()

    def output_bytes(self):
        return 0

    def check(self):
        _, _, batch = BNN_SHAPE
        words = PASSES * batch * (2 * self.gaussian_cells + self.bernoulli_cells)
        first = next(iter(self.results.values()))
        self.model_disagreements = 0
        for kind, r in self.results.items():
            sim = self.simulated(kind).cost
            self.model_disagreements += sum(
                1 for f in COST_FIELDS if not math.isclose(r["cost"][f], getattr(sim, f), rel_tol=1e-12)
            )
        return {
            "values_finite": all(bool(np.isfinite(r["values"]).all()) for r in self.results.values()),
            "stream_words_match_mix": all(r["stream_words"] == words for r in self.results.values()),
            "values_backend_independent": all(
                np.array_equal(r["values"], first["values"]) for r in self.results.values()
            ),
        }

    def layers(self, tracer):
        """Per-backend counters of the replay, and the simulator on the same counts."""
        out = {}
        for kind, r in self.results.items():
            with tracer.span("simulator.run_s"):
                sim = self.simulated(kind)
            out[f"simulator.sim_elapsed_s.{kind}"] = sim.elapsed_time
            out[f"simulator.bytes_moved.{kind}"] = sim.cost.bytes_moved
            for f in ("bytes_moved", "entropy_bits_consumed", "energy_pj"):
                out[f"probabilistic_memory.{f}.{kind}"] = r["cost"][f]
            out[f"probabilistic_memory.max_write_count.{kind}"] = r["max_write_count"]
        samples = sum(r["cost"]["total_samples"] for r in self.results.values())
        drew = sum(r["cost"]["entropy_bits_consumed"] / self.arrays[kind].bits_per_raw_sample
                   for kind, r in self.results.items())
        calls = tracer.calls()
        for name in PRIMITIVES:
            out[f"probabilistic_memory.{name}_calls"] = calls.get(f"probabilistic_memory.{name}_s", 0)
        out["probabilistic_memory.samples"] = samples
        out["probabilistic_memory.entropy_sample_frac"] = drew / samples
        out["entropy_sources.stream_words"] = sum(r["stream_words"] for r in self.results.values())
        return out


# ------------------------------------------------------------------------
# trace-mc
# ------------------------------------------------------------------------

MC_SHAPE = (1_000_000, 4)  # the gen-trace mc default


class TraceMc(CliWorkload):
    name = "trace-mc"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.backend = BACKEND_KINDS[seed % len(BACKEND_KINDS)]
        self.spec = mc_estimator(*MC_SHAPE)
        self.records = self.spec.stoch_accesses + 2  # compute + samples + one write

    def items(self):
        return 2 * self.records  # written by gen-trace, parsed by simulate

    def commands(self):
        return [
            ["gen-trace", "--workload", "mc", "--out", self.path("mc.csv")],
            ["simulate", "--trace", self.path("mc.csv"), "--seed", str(self.seed),
             "--backend", self.backend, "--out", self.path("sim.json")],
        ]

    def run(self, tracer=None):
        if tracer is None:
            return super().run()
        records_of_load = lambda result: len(result[0])  # noqa: E731
        with patched(
            cli,
            mc_trace=tracer.wrap(cli.mc_trace, "workload.trace_gen_s", "workload.records"),
            save_trace=tracer.wrap(cli.save_trace, "workload.save_trace_s"),
            load_trace=tracer.wrap(cli.load_trace, "workload.load_trace_s", "workload.records", records_of_load),
            run_sim=tracer.wrap(cli.run_sim, "simulator.run_s"),
        ):
            super().run()

    def check(self):
        checks = super().check()
        with open(self.path("mc.csv"), "rb") as fh:
            checks["trace_records_match"] = fh.read().count(b"\n") == self.records + 1
        with open(self.path("sim.json")) as fh:
            result = json.load(fh)["result"]
        spec = self.spec
        checks["simulate_counts_match"] = (
            result["cost"]["total_reads"] == spec.det_accesses
            and result["cost"]["total_samples"] == spec.stoch_accesses
            and result["cost"]["total_writes"] == 0
            and result["alpha"] == spec.alpha()
            and result["ai"] == spec.ai()
        )
        return checks


WORKLOADS = {wl.name: wl for wl in (FidelityNormal, ModelGrid, PmemBnnReplay, TraceMc)}
