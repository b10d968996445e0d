"""One repetition of one workload in a fresh process; prints one JSON line.

Started by run.py with ``--spawned-at``, the CLOCK_MONOTONIC reading taken
just before the process was created, so set-up time covers interpreter
start, package import and input generation.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    t_import = time.perf_counter()
    import entropy_roofline.cli  # noqa: F401  (the import every CLI command pays)
    import_s = time.perf_counter() - t_import

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if not os.path.realpath(entropy_roofline.__file__).startswith(src + os.sep):
        sys.exit(f"entropy_roofline imported from {entropy_roofline.__file__}, not from {src}")

    import numpy
    import scipy

    from tracing import Tracer
    from workloads import WORKLOADS

    # Relative to the repository root (the working directory), so outputs
    # that name their input file are the same in every checkout.
    workdir = os.path.join("perfbench", "_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        # A traced repetition runs once, so its spans cover one round.
        rounds = 1 if args.trace else getattr(workload, "rounds", 1)
        t_first = _monotonic()
        round_s, units, digests = [], [], []
        for _ in range(rounds):
            start = time.perf_counter()
            workload.run(tracer)
            round_s.append(time.perf_counter() - start)
            units += getattr(workload, "units", None) or [(workload.items(), round_s[-1])]
            digests.append(workload.digest())
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        top_level_s = tracer.top_level_s() if tracer is not None else None
        checks = workload.check()
        if rounds > 1:
            checks["rounds_byte_identical"] = all(d == digests[0] for d in digests)
        result = {
            "traced": bool(args.trace),
            "setup_s": t_first - args.spawned_at,
            "import_s": import_s,
            "round_s": round_s,
            "units": units,
            "peak_rss_mib": peak_rss_mib,
            "checks": checks,
            "digest": digests[0],
            "output_bytes": workload.output_bytes(),
            "model_disagreements": getattr(workload, "model_disagreements", None),
            "report": getattr(workload, "report", None),
            "versions": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
        if tracer is not None:
            layers = dict(tracer.counts)
            if hasattr(workload, "layers"):
                layers.update(workload.layers(tracer))
            result["spans"] = tracer.totals()
            result["top_level_s"] = top_level_s
            result["layers"] = layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
