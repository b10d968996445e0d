"""CLI output bytes pinned by sha256.

Each case runs one command into ``--out`` and compares the file's sha256 with
the value recorded for this release, so a refactor that moves any output byte
fails here.  The draws behind those bytes must not depend on which SIMD loops
numpy dispatches to on the host CPU; ``test_bytes_do_not_depend_on_numpy_dispatch``
checks that.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import entropy_roofline
from entropy_roofline.cli import main

BACKENDS = ("von_neumann", "coupled_pcim", "decoupled_near_memory", "decoupled_in_memory")

# acceptance criterion 11's grid
CRITERION_11_GRID = {
    "alpha": [0.0, 0.01, 0.1, 0.5, 1.0],
    "backend": ["von_neumann", "coupled_pcim", "decoupled_in_memory"],
    "mode": ["serialized", "overlapped"],
}
# retimed RNG under every backend, from a non-default base backend
BACKEND_GRID = {
    "beta_rand": [1e8, 3e9],
    "backend": list(BACKENDS),
    "mode": ["serialized", "overlapped"],
}
CONFIG = {
    "backend": {"kind": "decoupled_in_memory", "rng_rate": 2e9, "parallelism": 16},
    "shaping": {"method": "clt_accumulate", "k": 6},
}
# lanes set on another kind carry over to decoupled_in_memory
LANES_CONFIG = {"backend": {"kind": "von_neumann", "rng_rate": 4e9, "parallelism": 8}}
# a shaping section priced away from the default pipeline's 8 ops per draw
SHAPING_CONFIG = {"backend": {"kind": "von_neumann"}, "shaping": {"method": "box_muller", "cost": 100}}
# model-grid's shape: 41 alpha x 41 log-spaced ai (decimal literals, up to
# n_ops = 2.5e16 > 2**53) x 3 beta_rand x 4 backends x 2 modes
MODEL_GRID = {
    "alpha": [i / 40 for i in range(41)],
    "ai": [float(f"{m}e{e}") for e in range(-3, 11) for m in ("1", "2.5", "5")][:41],
    "beta_rand": [1e8, 1e9, 1e10],
    "backend": list(BACKENDS),
    "mode": ["serialized", "overlapped"],
}
# one shaping op per draw, so n_ops + shaping * stoch = 2**53 + 2 is exact as
# a float, while float(2**53 + 1) + 1.0 rounds (twice) to 2**53
ODD_SHAPING_CONFIG = {"backend": {"kind": "von_neumann"}, "shaping": {"method": "box_muller", "cost": 1}}
HUGE_COMPUTE_TRACE = f"op,row,col,count\r\ncompute,,,{2**53 + 1}\r\nread,0,0,3\r\nsample,0,0,1\r\n"

CASES = {
    "roofline": ["roofline", "--alpha", "0,0.01,0.5,1", "--points", "32"],
    "roofline-overrides": ["roofline", "--alpha", "0.25", "--pi", "1e9", "--beta-data", "1e8",
                           "--beta-rand", "1e6", "--ai-min", "0.5", "--ai-max", "500"],
    "sweep-criterion-11": ["sweep", "--grid", "{criterion_11_grid}"],
    "sweep-backends": ["sweep", "--grid", "{backend_grid}", "--config", "{config}",
                       "--workload", "mc", "--shape", "5000,3"],
    "sweep-backends-lanes": ["sweep", "--grid", "{backend_grid}", "--config", "{lanes_config}"],
    "simulate-lanes-decoupled_in_memory": ["simulate", "--workload", "mc", "--config",
                                           "{lanes_config}", "--backend", "decoupled_in_memory"],
    "simulate-shaping-mc": ["simulate", "--workload", "mc", "--config", "{shaping_config}"],
    "sweep-shaping-backends": ["sweep", "--grid", "{backend_grid}", "--config", "{shaping_config}"],
    # a Python `**` per ai; numpy's power differs in the last ulp on some points
    "roofline-10k": ["roofline", "--alpha", "0,0.3,0.9", "--points", "10000",
                     "--ai-min", "0.001", "--ai-max", "1e7"],
    "sweep-model-grid": ["sweep", "--grid", "{model_grid}"],
    "simulate-trace-huge-compute": ["simulate", "--trace", "{huge_compute_trace}",
                                    "--config", "{odd_shaping_config}"],
}
for _workload in ("bnn", "mc"):
    for _backend in BACKENDS:
        CASES[f"simulate-{_workload}-{_backend}"] = [
            "simulate", "--workload", _workload, "--backend", _backend]
for _backend in BACKENDS:
    CASES[f"simulate-config-{_backend}"] = [
        "simulate", "--workload", "conv-stoch", "--shape", "4,8,3,6,6,2",
        "--config", "{config}", "--backend", _backend]
for _workload, _shape in (("bnn", "6,5,2"), ("conv", "2,3,3,4,4,1"),
                          ("conv-stoch", "2,3,3,4,4,2"), ("mc", "20,3")):
    CASES[f"gen-trace-{_workload}"] = ["gen-trace", "--workload", _workload, "--shape", _shape]
for _target in ("normal", "uniform"):
    CASES[f"fidelity-{_target}"] = ["fidelity", "--samples", "100000", "--seed", "3", "--target", _target]
# the default mc trace (1,000,002 records) and its replay: perfbench's trace-mc
CASES["gen-trace-mc-default"] = ["gen-trace", "--workload", "mc"]
CASES["simulate-trace-mc-default"] = ["simulate", "--trace", "{mc_trace}"]

EXPECTED = {
    "fidelity-normal": "ea141c6920c89927e641a957dcac5143dc196afcc47bc26c5cef75e02191d629",
    "fidelity-uniform": "6c3b8c7761dfcf9b02bc0e88b67766b1f137aa3442905db1407c1eb1354def14",
    "gen-trace-bnn": "bb0b792b46f2a9d93f2db784a73f1fe8805e9d451c4f4da6055fce567fe7371c",
    "gen-trace-conv": "96d68df7c16ff7b4a79722a839820c54febe39a1842229fba444a09c9c8b3572",
    "gen-trace-conv-stoch": "d52b122229772a6dff9974bce486f6164f23677996722cfeeae70f8449736476",
    "gen-trace-mc-default": "b08e0f333d7ad297bc534a1e493b06e00b3d10ba63919036daa402dbf2c33547",
    "gen-trace-mc": "13c9581b2a7e9669ad5dc6291a737b503ac0d2b595ed24df417330f471829780",
    "roofline": "46437d6370d7478b74416ea5d58b3a6677e56eb442bba96e605d3b8c2f68aba9",
    "roofline-overrides": "2776b294aa9a86d24677b7863bc04abfb24703c6f06a1d264348760f907e23d0",
    "simulate-bnn-coupled_pcim": "50d6a590dbdc1721766995a612a8b4e2d801fab0c1e225466980a8d646fa1d85",
    "simulate-bnn-decoupled_in_memory": "3166ce5e3a3453f16f002fc544c1a567809d87e56009e43637346447c7a82e19",
    "simulate-bnn-decoupled_near_memory": "b22ccf2667838ac23ec6067268b558bd35584a2a53042584c9740a05d83a10de",
    "simulate-bnn-von_neumann": "1c0b30725c9a72b2a127f3d5c80389a9df7c3d8c5dfa8f035d47e23415ed6176",
    "simulate-lanes-decoupled_in_memory": "e4c150256a0e839637fe11f9f031f1c406241a0c3e12e8df052eee267e9aed04",
    "simulate-config-coupled_pcim": "ce1f5ba343f4599a20a1983ab244c72827d0d68d842e417c533ccba5016c6c00",
    "simulate-config-decoupled_in_memory": "2d9a0981badb53e00ddefa34a7cab25193d2efc90369ceb79b4aab0969c29990",
    "simulate-config-decoupled_near_memory": "c72ad7141fe3100f3e27f8824648629b95cd64ec801aaf7a3ad4f37dc7ef2309",
    "simulate-config-von_neumann": "bdd74cf6b871f2dffc9a6a553cecbdc2b4854a3ad512748f42c500ebbad8ecb9",
    "simulate-mc-coupled_pcim": "aa756c281e0c4ab15baf9d293c5cb9e1867ca180c97d5222f0e958de015a3a86",
    "simulate-mc-decoupled_in_memory": "6a2a5c86a5ad49016e5ef46eaa5560d9555ac2f6c5c0530e831281d241b2ffc1",
    "simulate-mc-decoupled_near_memory": "aea6caa3740342a239838dc762330ea9f365db7c51613c6047d4b1179db1be64",
    "simulate-mc-von_neumann": "89e23fcb92f8150853a94e2f8c1a324f49731fed781d258b9228319264b6552a",
    "simulate-shaping-mc": "ac9d721ea213818f727543936609204b6ecd5816c988b43891cdc1a7ea8a6307",
    "sweep-backends": "7bb76204491b4e1e32f0a07f41cb207d907deefc2a5117ef4227856ddffdb925",
    "sweep-backends-lanes": "f62268a36fca99635f1ebc01bbd507e6bd8e1f53fd7d38e490efcec9f8b41870",
    "sweep-criterion-11": "04c851c3f4e9dc0c14c6ae2f01d308f0efb544d5a399e59c64c33b19590a1bf5",
    "simulate-trace-mc-default": "3eb8f1c67138c601ce05f7befbd8255cbdeb0bcf8f056873f6fdc5a807409684",
    "sweep-shaping-backends": "e62a57c282dde7a421a3d0903ef63ff979cc5cf6aa24ec00341ad1c8b9665808",
    "roofline-10k": "b7712c81243f8fa021282d89722ecc51201467329ceec006661c5b751259be73",
    "sweep-model-grid": "d72a18c01586c45d921dcff0ff7f9ab1d2adf4af60e14f0854a7346406a496cd",
    "simulate-trace-huge-compute": "2720f0ad3a36b66361f06824ad788c9260a3c2cb34cfdc29998bfef909e32be2",
}


def case_digest(name, tmp_path):
    """sha256 of the ``--out`` bytes of case ``name``, run in ``tmp_path``."""
    files = {
        "criterion_11_grid": CRITERION_11_GRID,
        "backend_grid": BACKEND_GRID,
        "config": CONFIG,
        "lanes_config": LANES_CONFIG,
        "shaping_config": SHAPING_CONFIG,
        "model_grid": MODEL_GRID,
        "odd_shaping_config": ODD_SHAPING_CONFIG,
    }
    paths = {}
    for key, payload in files.items():
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(payload, fh)
    paths["huge_compute_trace"] = str(tmp_path / "huge.csv")
    with open(paths["huge_compute_trace"], "w", newline="") as fh:
        fh.write(HUGE_COMPUTE_TRACE)
    if any("{mc_trace}" in arg for arg in CASES[name]):
        paths["mc_trace"] = str(tmp_path / "mc.csv")  # named by its base name
        assert main(["gen-trace", "--workload", "mc", "--out", paths["mc_trace"]]) == 0
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in CASES[name]] + ["--out", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_case_has_one_digest():
    assert set(CASES) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_pinned(name, tmp_path):
    assert case_digest(name, tmp_path) == EXPECTED[name]


# One "name sha256" line per output of every path that draws normals: the CLI
# fidelity report, a thermal source, a mismatch map and a mixed batch_sample.
DISPATCH_PROBE = """
import hashlib, os, sys
from entropy_roofline.cli import main
from entropy_roofline.entropy_sources import EntropyStream, SourceSpec, create_source, mismatch_array
from entropy_roofline.probabilistic_memory import BackendConfig, DistributionSpec, PMemArray

def emit(name, data):
    print(name, hashlib.sha256(data).hexdigest())

for target in ("normal", "uniform"):
    out = os.path.join(sys.argv[1], target + ".json")
    assert main(["fidelity", "--samples", "100000", "--seed", "3", "--target", target, "--out", out]) == 0
    with open(out, "rb") as fh:
        emit("fidelity-" + target, fh.read())
emit("thermal", create_source(SourceSpec.thermal_gaussian(sigma=0.5, seed=3)).draw(100_000).tobytes())
emit("mismatch", mismatch_array(SourceSpec.mismatch_static(0.01, seed=3), 300, 300).offsets.tobytes())
array = PMemArray(100, 100, BackendConfig.von_neumann())
addrs = [(r, c) for r in range(100) for c in range(100)]
for k, addr in enumerate(addrs):
    array.write(addr, DistributionSpec.bernoulli(0.3) if k % 4 == 3 else DistributionSpec.gaussian(k * 1e-3, 0.5))
stream = EntropyStream(seed=3)
values = [array.batch_sample(addrs, stream)[0] for _ in range(10)]
emit("batch_sample", repr(values).encode())
"""


def test_bytes_do_not_depend_on_numpy_dispatch(tmp_path):
    """Every output is the same with numpy's SIMD dispatch on and with every
    dispatch target off, as on a host without AVX-512 (numpy's AVX-512
    ``log`` differs from libm's in the last bit on some inputs)."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    src = os.path.dirname(os.path.dirname(entropy_roofline.__file__))
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    base.pop("NPY_DISABLE_CPU_FEATURES", None)
    digests = []
    for disabled in (None, " ".join(__cpu_dispatch__)):
        env = base if disabled is None else dict(base, NPY_DISABLE_CPU_FEATURES=disabled)
        out = tmp_path / ("plain" if disabled is None else "scalar")
        out.mkdir()
        done = subprocess.run([sys.executable, "-c", DISPATCH_PROBE, str(out)], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(dict(line.split() for line in done.stdout.splitlines()))
    assert len(digests[0]) == 5
    assert digests[0] == digests[1]
