"""The seeded outputs of four reference configs, pinned under one BLAS kernel.

A certificate depends on the OpenBLAS kernel that numpy picks for the CPU,
so the configs run in one subprocess with ``OPENBLAS_CORETYPE=Haswell``,
which any AVX2 x86-64 host can run.  The test compares the certificate's
numbers by ``repr`` and the sha256 of the other JSON artifacts against
``reference_outputs.json``.  ``certificate.json`` is compared only by its
numbers, so that new record fields do not break the pin; ``cumtime.csv``
holds wall times and is left out.  A change that moves seeded outputs on
purpose rewrites the pin and says so in CHANGES.md:

    python tests/test_reference_outputs.py --write
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from optcert.pipeline import ExperimentConfig, run_pipeline  # noqa: E402

PIN = Path(__file__).with_name("reference_outputs.json")
KERNEL = "Haswell"
CERTIFICATE_KEYS = ("bound", "lambda_star", "kl", "emp_risk", "kept_indices", "p_hats", "point_estimate")
HASHED = ("data", "init", "prior_location", "samples", "report")


# the config factories of the benchmark's workloads, copied so that the pin stays fixed

def desk_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        problem="quadratic", dim=20, m_range=(1.0, 2.0), L_range=(5.0, 10.0),
        sizes=(50, 50, 50, 50), n_train=50, seed=seed,
        init={"n_init": 50, "eps_init": 10.0, "max_iterations": 1000},
        locate={"n_max": 3000, "check_every": 500, "run_length": 50,
                "target_len": 50, "score_instances": 10},
        sgld={"n_samples": 8, "thinning": 1, "run_length": 50, "target_len": 50},
    )


def lasso_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        problem="lasso", dim=40, design_rows=25, reg_range=(0.1, 1.0),
        sizes=(50, 50, 50, 50), n_train=10, seed=seed,
        init={"n_init": 100, "eps_init": 1.0, "max_iterations": 2000, "target_len": 10},
        locate={"n_max": 6000, "check_every": 500, "run_length": 10,
                "target_len": 10, "score_instances": 20},
        sgld={"n_samples": 10, "thinning": 1, "run_length": 10,
              "target_len": 10, "step0": 1e-8},
    )


def tiny_config(seed: int = 3) -> ExperimentConfig:
    return ExperimentConfig(
        problem="quadratic", dim=4, m_range=(1.0, 2.0), L_range=(5.0, 9.0),
        sizes=(10, 10, 10, 10), n_train=10, seed=seed,
        init={"n_init": 20, "eps_init": 5.0, "max_iterations": 200},
        locate={"n_max": 600, "check_every": 200, "run_length": 10,
                "target_len": 10, "score_instances": 5},
        sgld={"n_samples": 3, "thinning": 1, "run_length": 10, "target_len": 10},
        pac={"grid_size": 200},
    )


CONFIGS = {
    "tiny_config(3)": lambda: tiny_config(3),
    "desk_config(0)": lambda: desk_config(0),
    "desk_config(1)": lambda: desk_config(1),
    "lasso_config(7)": lambda: lasso_config(7),
}


def _blas_core() -> str:
    """The core name of numpy's bundled OpenBLAS, or "unknown" without that library."""
    for path in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so"):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _outputs() -> dict:
    """Straight runs of the four configs: the pinned certificate numbers and artifact hashes of each."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in CONFIGS.items():
            out_dir = Path(tmp) / name
            run_pipeline(make(), out_dir)
            cert = json.loads((out_dir / "certificate.json").read_text())
            outputs[name] = {
                **{key: repr(cert[key]) for key in CERTIFICATE_KEYS},
                **{f"{stage}.json": hashlib.sha256((out_dir / f"{stage}.json").read_bytes()).hexdigest()
                   for stage in HASHED},
            }
    return {"kernel": _blas_core(), "outputs": outputs}


def _outputs_under_kernel() -> dict:
    """``_outputs`` of a fresh process whose OpenBLAS runs the ``KERNEL`` kernel."""
    env = dict(os.environ, OPENBLAS_CORETYPE=KERNEL)
    proc = subprocess.run([sys.executable, __file__, "--outputs"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.mark.skipif(not _has_avx2(), reason=f"the pin was written by OpenBLAS's {KERNEL} kernel, which needs AVX2")
def test_reference_configs_reproduce_the_pinned_outputs():
    got = _outputs_under_kernel()
    if got["kernel"] != KERNEL:
        pytest.skip(f"numpy's OpenBLAS runs the {got['kernel']} kernel, not {KERNEL}")
    want = json.loads(PIN.read_text())
    for name in CONFIGS:
        assert got["outputs"][name] == want[name], name


if __name__ == "__main__":
    if sys.argv[1:] == ["--outputs"]:
        print(json.dumps(_outputs()))
    elif sys.argv[1:] == ["--write"]:
        PIN.write_text(json.dumps(_outputs_under_kernel()["outputs"], indent=2) + "\n")
    else:
        sys.exit(f"usage: python {Path(__file__).name} --write")
