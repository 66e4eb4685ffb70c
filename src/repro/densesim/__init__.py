"""Dense statevector / density-matrix simulation (Aer substitute)."""

from .statevector import (
    apply_matrix,
    pauli_expectation,
    pauli_sum_expectation,
    simulate_statevector,
)
from .density_matrix import DensityMatrixSimulator, PauliReadout
from .schedule import ScheduleCompiler, check_dense_fits
from .batched import BatchedDensityMatrixSimulator, evolve_steps_with_noise
from . import channels
from .evaluator import (
    evolve_with_noise,
    measurement_attenuations,
    noiseless_energy,
    noisy_energy,
)

__all__ = [
    "BatchedDensityMatrixSimulator", "DensityMatrixSimulator",
    "PauliReadout", "ScheduleCompiler", "apply_matrix", "channels",
    "check_dense_fits", "evolve_steps_with_noise",
    "evolve_with_noise", "measurement_attenuations", "noiseless_energy",
    "noisy_energy", "pauli_expectation", "pauli_sum_expectation",
    "simulate_statevector",
]
