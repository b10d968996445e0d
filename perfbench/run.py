"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each repetition runs in its own fresh process (child.py), one after another,
until the repetitions have measured ``--seconds`` of work and at least
MIN_CHILDREN ran.  ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json, ``--trace 1`` the per-layer metrics; the last line of stdout is
one JSON object.  Run from anywhere: paths are resolved from this file.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fidelity-normal", "model-grid", "pmem-bnn-replay", "trace-mc")

MIN_CHILDREN = 3  # untraced repetitions per run, for set-up and medians
MIN_TRACED = 2  # traced and untraced repetitions each, in a traced run
MAX_CHILDREN = 40
CHILD_TIMEOUT_S = 60
WALL_GUARD_S = 100  # start no repetition after this much of the run


class BenchError(Exception):
    pass


def _thread_env():
    """Child environment: the package from src/, BLAS/OpenMP capped at nproc."""
    cap = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    return env, cap


def _spawn(workload, seed, traced, env):
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced))]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: repetition exited {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _enough(children, seconds, trace):
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    if trace:
        done = len(plain) >= MIN_TRACED and len(traced) >= MIN_TRACED
    else:
        done = len(plain) >= MIN_CHILDREN
    return done and sum(sum(c["round_s"]) for c in children) >= seconds


def _run_children(workload, seed, seconds, trace, env):
    children = []
    start = time.monotonic()
    while not _enough(children, seconds, trace):
        if len(children) >= MAX_CHILDREN or time.monotonic() - start > WALL_GUARD_S:
            break
        traced = bool(trace) and len(children) % 2 == 1
        children.append(_spawn(workload, seed, traced, env))
    return children


def _spread(values):
    """'median (q1..q3, n=k)' with the highest tail percentile that has at
    least ten samples beyond it, if any."""
    text = f"median {median(values):.6g}"
    if len(values) >= 2:
        q1, _, q3 = quantiles(values, n=4)
        text += f" (q1 {q1:.6g}, q3 {q3:.6g}"
    else:
        text += " ("
    text += f", n={len(values)}"
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = quantiles(values, n=100)[pct - 1]
            text += f", p{pct} {cut:.6g}"
            break
    else:
        text += ", no tail percentile: fewer than 10 samples beyond p90"
    return text + ")"


def _checks(children):
    """(attempted, failed, names of failed checks) over every repetition."""
    attempted = failed = 0
    names = []
    for i, child in enumerate(children):
        for name, ok in child["checks"].items():
            attempted += 1
            if not ok:
                failed += 1
                names.append(f"rep{i}:{name}")
    with_digest = [c for c in children if c["digest"] is not None]
    for i, child in enumerate(with_digest[1:], start=1):
        attempted += 1
        if (child["digest"], child["model_disagreements"]) != (
            with_digest[0]["digest"], with_digest[0]["model_disagreements"]
        ):
            failed += 1
            names.append(f"rep{i}:output_differs_from_first")
    reports = [c["report"] for c in children if c["report"] is not None]
    for i, report in enumerate(reports[1:], start=1):
        attempted += 1
        if report != reports[0]:
            failed += 1
            names.append(f"rep{i}:fidelity_report_differs_from_first")
    return attempted, failed, names


def _end_to_end(children):
    return {
        "items_per_s": [items / seconds for c in children for items, seconds in c["units"]],
        "setup_s": [c["setup_s"] for c in children],
        "peak_rss_mib": [c["peak_rss_mib"] for c in children],
    }


def _per_layer(children):
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    values = {}
    for name in {n for c in traced for n in c["spans"]}:
        values[name] = median([c["spans"].get(name, 0.0) for c in traced])
    values.update(traced[0]["layers"])
    untraced_s = median([s for c in plain for s in c["round_s"]])
    values["cli.import_s"] = median([c["import_s"] for c in children])
    values["cli.self_s"] = untraced_s - median([c["top_level_s"] for c in traced])
    values["cli.output_bytes"] = plain[0]["output_bytes"]
    values["trace_overhead_s"] = median([c["round_s"][0] for c in traced]) - untraced_s
    values["model_disagreements"] = plain[0]["model_disagreements"] or 0
    return values


def measure(workload, seed, seconds, trace, spec, env, cap):
    children = _run_children(workload, seed, seconds, trace, env)
    attempted, failed, failed_names = _checks(children)
    plain = [c for c in children if not c["traced"]]
    versions = plain[0]["versions"]
    print(f"== {workload}  seed {seed}  trace {trace} ==")
    print(f"env: python {versions['python']}, numpy {versions['numpy']}, scipy {versions['scipy']}, "
          f"nproc {len(os.sched_getaffinity(0))}, BLAS/OpenMP thread cap {cap}, seed {seed}, "
          f"repetitions {len(plain)} untraced + {len(children) - len(plain)} traced, "
          f"each in a fresh process")
    print(f"output digest: {plain[0]['digest']}")
    if trace:
        metrics_spec = spec["per_layer"]
        values = _per_layer(children)
        for m in metrics_spec:
            print(f"{m['name']:<66} {values.get(m['name'], 0.0):.6g} {m['unit']}")
    else:
        metrics_spec = spec["end_to_end"]
        samples = _end_to_end(plain)
        values = {name: median(v) for name, v in samples.items()}
        for m in metrics_spec:
            print(f"{m['name']:<14} {m['unit']:<8} {_spread(samples[m['name']])}")
        print(f"{'failed_frac':<14} {'ratio':<8} {failed / attempted:.6g} ({failed} of {attempted} checks)")
        md = plain[0]["model_disagreements"]
        print(f"{'model_disagreements':<14} {'count':<8} {'n/a on this workload' if md is None else md}")
    if failed_names:
        print("failed checks: " + ", ".join(failed_names))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in metrics_spec}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "entropy_roofline", "cli.py")):
        sys.exit(f"no package source at {SRC}/entropy_roofline: run from a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env, cap = _thread_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = measure(name, args.seed, seconds, args.trace, spec, env, cap)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")
    finally:
        shutil.rmtree(os.path.join(HERE, "_work"), ignore_errors=True)


if __name__ == "__main__":
    main()
