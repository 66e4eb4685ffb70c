"""Isolated noise channels: how does eta scale with each error source?

A miniature of the paper's Sec. 6.2 sweeps (Figs. 7/8): fix a benchmark,
sweep one channel's strength with thermal relaxation held at a chosen T1,
and report Clapton's relative improvement over noise-aware CAFQA at the
initial VQE point.

Run:  python examples/noise_channel_study.py
"""

from repro import NoiseModel, ground_state_energy, ising_model
from repro.experiments import SMOKE_ENGINE, Experiment


def sweep(hamiltonian, models, e0) -> list[float]:
    """eta(clapton vs ncafqa) at the initial point, one per noise model."""
    return [Experiment(hamiltonian, noise_model=model, e0=e0)
            .run(("ncafqa", "clapton"), config=SMOKE_ENGINE)
            .eta_initial("ncafqa")
            for model in models]


def main() -> None:
    hamiltonian = ising_model(5, coupling=1.0)
    e0 = ground_state_energy(hamiltonian)
    print(f"5-qubit Ising (J=1.0), E0 = {e0:.4f}")
    t1 = 100e-6

    gate_errors = [5e-4, 2e-3, 5e-3]
    models = [NoiseModel.uniform(5, depol_1q=p, depol_2q=10 * p,
                                 readout=0.02, t1=t1)
              for p in gate_errors]
    print(f"\ngate-error sweep (2q error = 10p, T1 = {t1 * 1e6:.0f} us, "
          "readout 2%):")
    etas = sweep(hamiltonian, models, e0)
    for p, eta in zip(gate_errors, etas):
        print(f"  p = {p:.0e}:  eta vs ncafqa = {eta:.2f}")

    meas_errors = [5e-3, 3e-2, 9e-2]
    models = [NoiseModel.uniform(5, depol_1q=5e-4, depol_2q=5e-3,
                                 readout=p, t1=t1)
              for p in meas_errors]
    print("\nmeasurement-error sweep (gate errors fixed at 5e-4 / 5e-3):")
    etas = sweep(hamiltonian, models, e0)
    for p, eta in zip(meas_errors, etas):
        print(f"  p = {p:.0e}:  eta vs ncafqa = {eta:.2f}")


if __name__ == "__main__":
    main()
