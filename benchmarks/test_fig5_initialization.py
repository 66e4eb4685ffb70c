"""Figure 5: initialization quality across benchmarks and backends.

Regenerates the paper's main result table: for each benchmark and backend,
the three methods' initial points under noise-free / Clifford-model /
device-model evaluation, the post-VQE final points, and the relative
improvements eta with their geometric means.

Reductions vs the paper (EXPERIMENTS.md records the full mapping):
* physics models at 5-6 qubits instead of 7/10 and one chemistry benchmark
  (LiH) instead of six -- wall-time, not capability, the 10-qubit suite runs
  with CLAPTON_BENCH_PRESET=paper;
* VQE final points from 30 SPSA iterations on the nairobi rows only;
* hanoi "hardware" energies come from the hardware twin.
"""

from conftest import print_banner, run_once

from repro.backends import FakeHanoi, FakeMumbai, FakeNairobi, FakeToronto
from repro.experiments import Experiment
from repro.hamiltonians import get_benchmark
from repro.metrics import geometric_mean


def _gather(backend, names, num_qubits, config, vqe_iterations=0,
            hardware=None):
    return [Experiment(get_benchmark(name, num_qubits).hamiltonian(),
                       backend=backend, hardware=hardware, name=name)
            .run(config=config, vqe_iterations=vqe_iterations)
            for name in names]


def _print_table(results) -> None:
    """Fixed-width device-model table mirroring Fig. 5's content."""
    print(f"{'benchmark':<14} {'E0':>10} "
          f"{'cafqa':>10} {'ncafqa':>10} {'clapton':>10} "
          f"{'eta_vs_cafqa':>13} {'eta_vs_ncafqa':>14}")
    for result in results:
        e = {m: ev.device_model for m, ev in result.evaluations.items()}
        print(f"{result.benchmark:<14} {result.e0:>10.4f} "
              f"{e['cafqa']:>10.4f} {e['ncafqa']:>10.4f} "
              f"{e['clapton']:>10.4f} "
              f"{result.eta_initial('cafqa'):>13.2f} "
              f"{result.eta_initial('ncafqa'):>14.2f}")


def test_fig5_nairobi_physics(benchmark, bench_config):
    backend = FakeNairobi()
    names = ["ising_J1.00", "xxz_J0.50"]

    rows = run_once(benchmark, lambda: _gather(
        backend, names, 5, bench_config, vqe_iterations=30))

    print_banner("Figure 5 | nairobi (model) | physics, 5q | initial+final")
    _print_table(rows)
    print(f"\n{'benchmark':<14} {'eta_f vs cafqa':>15} {'eta_f vs ncafqa':>16}")
    for row in rows:
        print(f"{row.benchmark:<14} {row.eta_final('cafqa'):>15.2f} "
              f"{row.eta_final('ncafqa'):>16.2f}")
    gmean_i = geometric_mean([max(r.eta_initial("cafqa"), 1e-3) for r in rows])
    gmean_f = geometric_mean([max(r.eta_final("cafqa"), 1e-3) for r in rows])
    print(f"\ngeometric mean eta vs CAFQA: initial {gmean_i:.2f}, "
          f"final {gmean_f:.2f}  (paper: 1.7-3.7 initial, 1.5-3.5 final)")
    # headline shape: Clapton's initial point beats CAFQA's on average
    assert gmean_i > 1.0


def test_fig5_toronto_physics_and_chemistry(benchmark, bench_config):
    backend = FakeToronto()

    def experiment():
        rows = _gather(backend, ["xxz_J0.25", "xxz_J1.00"], 6, bench_config)
        rows += _gather(backend, ["LiH_l1.5"], 10, bench_config)
        return rows

    rows = run_once(benchmark, experiment)

    print_banner("Figure 5 | toronto (model) | physics 6q + LiH 10q | initial")
    _print_table(rows)
    etas_cafqa = [max(r.eta_initial("cafqa"), 1e-3) for r in rows]
    etas_ncafqa = [max(r.eta_initial("ncafqa"), 1e-3) for r in rows]
    print(f"\ngeometric mean eta: vs CAFQA {geometric_mean(etas_cafqa):.2f}, "
          f"vs nCAFQA {geometric_mean(etas_ncafqa):.2f}")
    assert geometric_mean(etas_cafqa) > 1.0
    # paper: chemistry profits most from the transformation
    chem_eta = rows[-1].eta_initial("cafqa")
    print(f"chemistry (LiH) eta vs CAFQA: {chem_eta:.2f}")


def test_fig5_mumbai_physics(benchmark, bench_config):
    backend = FakeMumbai()
    names = ["ising_J0.25", "xxz_J0.50"]

    rows = run_once(benchmark, lambda: _gather(backend, names, 6,
                                               bench_config))

    print_banner("Figure 5 | mumbai (model) | physics, 6q | initial points")
    _print_table(rows)
    etas = [max(r.eta_initial("cafqa"), 1e-3) for r in rows]
    print(f"\ngeometric mean eta vs CAFQA: {geometric_mean(etas):.2f}")
    # mumbai is the cleanest fake model; gains are smaller but present
    assert geometric_mean(etas) > 0.9


def test_fig5_hanoi_hardware(benchmark, bench_config):
    backend = FakeHanoi()
    twin = backend.hardware_twin(seed=2024)

    rows = run_once(benchmark, lambda: _gather(
        backend, ["xxz_J0.25", "ising_J0.50"], 6, bench_config,
        hardware=twin))

    print_banner("Figure 5 | hanoi (model + hardware twin) | initial points")
    print(f"{'benchmark':<14} {'method':<9} {'model':>9} {'hardware':>9}")
    for row in rows:
        for method, ev in row.evaluations.items():
            print(f"{row.benchmark:<14} {method:<9} {ev.device_model:>9.4f} "
                  f"{ev.hardware:>9.4f}")
    for row in rows:
        eta_hw = row.eta_initial("cafqa", tier="hardware")
        print(f"{row.benchmark}: hardware eta vs CAFQA = {eta_hw:.2f}")
        # the paper's hardware claim: improvements survive the twin
        assert eta_hw > 0.8  # allow mild degradation, must not collapse
