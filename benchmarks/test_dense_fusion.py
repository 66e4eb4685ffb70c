"""Micro-benchmark: one device-model energy, fused schedule vs unfused walk.

The dense device model (the Fig. 5 "x" markers and the noisy VQE of
Fig. 6) evolves rho through a fused superoperator schedule
(:mod:`repro.densesim.schedule`).  This bench times one energy of the
transpiled XXZ ansatz on the toronto device model at 6, 8 and 10 qubits,
fused against the unfused per-op walk kept as the test-support oracle,
asserts the two agree to 1e-12, and reports the speedup.  The fused path
is timed through ``ExactEstimator.estimate`` (its compiler warm, as in a
VQE loop); the oracle through its walk plus the same readout.

Timings are medians over repeats with the inter-quartile range beside
them.  Emits one BENCH JSON line/file like the other micro-benchmarks; the
JSON lands at ``CLAPTON_BENCH_JSON`` (default
``benchmarks/bench_results/dense_fusion.json``).
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
from conftest import print_banner, run_once
from dense_oracle import evolve_with_noise_unfused

from repro.backends import ALL_BACKENDS
from repro.densesim import measurement_attenuations
from repro.execution import ExactEstimator
from repro.experiments import Experiment
from repro.hamiltonians import get_benchmark

SIZES = (6, 8, 10)
#: timed repeats per size: (fused, oracle)
REPEATS = {6: (41, 9), 8: (21, 5), 10: (9, 3)}
TOL = 1e-12


def _quartiles(samples):
    q1, median, q3 = np.percentile(samples, (25, 50, 75))
    return float(median), float(q3 - q1)


def _timed(fn, repeats):
    samples, value = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - start)
    return value, _quartiles(samples)


def _one_size(n: int) -> dict:
    hamiltonian = get_benchmark(f"xxz:n={n},J=0.5").hamiltonian()
    problem = Experiment(hamiltonian, backend=ALL_BACKENDS["toronto"](),
                         name="dense-fusion", e0=0.0).problem
    observable = problem.mapped_hamiltonian()
    theta = np.random.default_rng(n).uniform(
        0, 2 * np.pi, problem.eval_ansatz.num_parameters)
    circuit = problem.bound_ansatz(theta)
    noise = problem.noise_model
    attenuation = measurement_attenuations(observable, noise)

    estimator = ExactEstimator(problem, observable)
    estimator.estimate(theta)                   # warm the compiler caches
    fused_repeats, oracle_repeats = REPEATS[n]
    fused, (fused_s, fused_iqr) = _timed(
        lambda: estimator.estimate(theta).value, fused_repeats)
    oracle, (oracle_s, oracle_iqr) = _timed(
        lambda: evolve_with_noise_unfused(circuit, noise).expectation_sum(
            observable, attenuation), oracle_repeats)
    return {
        "qubits": n,
        "gates": len(circuit.instructions),
        "fused_s": round(fused_s, 6), "fused_iqr_s": round(fused_iqr, 6),
        "oracle_s": round(oracle_s, 6), "oracle_iqr_s": round(oracle_iqr, 6),
        "speedup": round(oracle_s / fused_s, 2),
        "abs_diff": abs(fused - oracle),
        "repeats": [fused_repeats, oracle_repeats],
    }


def _emit_bench_json(payload: dict) -> None:
    path = Path(os.environ.get(
        "CLAPTON_BENCH_JSON",
        Path(__file__).parent / "bench_results" / "dense_fusion.json"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"BENCH {json.dumps(payload)}")


def test_fused_device_energy(benchmark):
    rows = run_once(benchmark, lambda: [_one_size(n) for n in SIZES])

    print_banner("Dense device model | one energy, fused vs unfused oracle")
    print(f"{'qubits':>6} {'gates':>6} {'fused ms':>10} {'oracle ms':>10} "
          f"{'speedup':>8} {'|diff|':>9}")
    for row in rows:
        print(f"{row['qubits']:>6} {row['gates']:>6} "
              f"{row['fused_s'] * 1e3:>10.2f} {row['oracle_s'] * 1e3:>10.2f} "
              f"{row['speedup']:>7.1f}x {row['abs_diff']:>9.1e}")

    _emit_bench_json({
        "bench": "dense_fusion",
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "python": platform.python_version(),
                    "openblas_threads": os.environ.get(
                        "OPENBLAS_NUM_THREADS", "default")},
        "sizes": rows,
    })

    for row in rows:
        assert row["abs_diff"] <= TOL, row
