"""Figure 8: relative improvement vs measurement-error strength.

Sweeps the readout misassignment probability with gate errors fixed, the
isolated-measurement-noise counterpart of Fig. 7 (Sec. 6.2).  The paper's
observations asserted here: the Ising model is comparatively robust to
readout error (modest eta) while chemistry still profits significantly.
"""

from conftest import print_banner, run_once

from repro.experiments import Experiment
from repro.hamiltonians import get_benchmark, ground_state_energy
from repro.noise import NoiseModel

MEAS_ERRORS = [5e-3, 3e-2, 9.5e-2]
GATE_1Q = 5e-4
T1 = 150e-6


def _sweep(hamiltonian, config):
    """eta(clapton vs ncafqa) at each measurement-error point."""
    e0 = ground_state_energy(hamiltonian)
    return [Experiment(hamiltonian, e0=e0, noise_model=NoiseModel.uniform(
                hamiltonian.num_qubits, depol_1q=GATE_1Q,
                depol_2q=10 * GATE_1Q, readout=p, t1=T1))
            .run(("ncafqa", "clapton"), config=config).eta_initial("ncafqa")
            for p in MEAS_ERRORS]


def test_fig8_ising(benchmark, bench_config):
    hamiltonian = get_benchmark("ising_J1.00", 6).hamiltonian()
    etas = run_once(benchmark, lambda: _sweep(hamiltonian, bench_config))
    print_banner("Figure 8(a) | Ising J=1.00, 6q | eta vs nCAFQA over meas error")
    for p, eta in zip(MEAS_ERRORS, etas):
        print(f"p = {p:.1e}:  eta = {eta:.2f}")
    assert min(etas) > 0.7


def test_fig8_lih_chemistry(benchmark, bench_config):
    hamiltonian = get_benchmark("LiH_l4.5", 10).hamiltonian()
    etas = run_once(benchmark, lambda: _sweep(hamiltonian, bench_config))
    print_banner("Figure 8(d) | LiH l=4.5, 10q | eta vs nCAFQA over meas error")
    for p, eta in zip(MEAS_ERRORS, etas):
        print(f"p = {p:.1e}:  eta = {eta:.2f}")
    assert max(etas) >= 1.0
