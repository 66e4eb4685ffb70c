"""Batched density-matrix evolution: one noisy run for a whole theta batch.

The scalar device-model path pays its fused-block dispatch once per
parameter point.  At the package's working sizes (6-7 qubits) that
dispatch -- not the arithmetic -- dominates, so evaluating a GA
population or an SPSA sweep point by point wastes most of its wall time.

This module stacks ``B`` density matrices into one ``(B, 2^n, 2^n)``
tensor and evolves them through one compiled schedule
(:mod:`repro.densesim.schedule`): each block is a single batched matmul,
with per-point rotation angles folded into ``(B, 16, 16)`` block
superoperators.  All noise channels are parameter-independent (they depend
only on the gate's name and qubits), which is what makes the shared walk
exact.

Points in a batch must share a circuit *structure* (the same instruction
sequence after identity-rotation dropping); the estimator layer groups
points by structure signature before calling in here.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Instruction
from ..noise.model import NoiseModel
from .density_matrix import PauliReadout
from .schedule import ScheduleCompiler, check_dense_fits, compiler_for


class BatchedDensityMatrixSimulator:
    """``B`` mixed states on ``num_qubits`` qubits, evolved in lockstep.

    ``tensor`` has shape ``(B, 2^n, 2^n)``: one density matrix per point.
    """

    def __init__(self, num_qubits: int, batch_size: int,
                 tensor: np.ndarray | None = None):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if batch_size < 1:
            raise ValueError("need at least one batch point")
        check_dense_fits(num_qubits, batch_size)
        self.num_qubits = int(num_qubits)
        self.batch_size = int(batch_size)
        dim = 2 ** self.num_qubits
        if tensor is None:
            tensor = np.zeros((self.batch_size, dim, dim), dtype=complex)
            tensor[:, 0, 0] = 1.0
        self.tensor = tensor.reshape(self.batch_size, dim, dim)

    def pauli_expectations(self, paulis) -> np.ndarray:
        """``tr[rho_b P_i]`` for every batch point and term: ``(B, M)``."""
        return PauliReadout(paulis, self.num_qubits)(self.tensor)


def evolve_steps_with_noise(steps: list[tuple[Instruction, np.ndarray | None]],
                            num_qubits: int, batch_size: int,
                            noise_model: NoiseModel, *,
                            compiler: ScheduleCompiler | None = None
                            ) -> BatchedDensityMatrixSimulator:
    """Evolve a batch through one shared circuit structure with noise.

    ``steps`` is the bound circuit as ``(instruction, angles)`` pairs:
    ``angles`` is a ``(B,)`` vector of per-point rotation angles for
    parameter-dependent rotations and ``None`` for instructions shared by
    every point.  The schedule (channel fusion, ASAP idle relaxation) is
    the one :func:`repro.densesim.evaluator.evolve_with_noise` compiles;
    pass a ``compiler`` built on ``noise_model`` to reuse its cached
    superoperators across calls.
    """
    if noise_model.num_qubits != num_qubits:
        raise ValueError("noise model size does not match circuit register")
    schedule = compiler_for(noise_model, compiler).compile(steps, batch_size)
    return BatchedDensityMatrixSimulator(num_qubits, batch_size,
                                         tensor=schedule.run())

