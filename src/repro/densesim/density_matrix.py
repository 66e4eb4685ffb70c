"""Dense density-matrix simulator -- the "full device model" evaluator.

This module plays the role of Qiskit Aer's density-matrix method in the
paper's evaluation (Sec. 5.2.2): circuits are evolved exactly under unitary
gates *and* completely positive noise channels (including the non-Clifford
amplitude damping), which defines the device-model energy marked "x" in
Figure 5.  Practical up to ~12 qubits, comfortably covering the paper's
7- and 10-qubit benchmarks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from .schedule import check_dense_fits
from .statevector import _masks, apply_matrix


class PauliReadout:
    """``tr[rho_b P_i]`` for a batch of density matrices and fixed Paulis.

    ``P|b> = sign * i^{#Y} * (-1)^{popcount(b & z)} |b ^ x>``, so
    ``tr[rho P] = sign * i^{#Y} * sum_b rho[b, b ^ x] (-1)^{popcount(b & z)}``.
    The flat gather indices and signed phases are built once per
    observable; each call is one gather and one contraction, ``(B, M)``.
    """

    def __init__(self, paulis, num_qubits: int):
        dim = 2 ** num_qubits
        rows = np.arange(dim, dtype=np.int64)
        self._flat = np.empty((len(paulis), dim), dtype=np.int64)
        self._weights = np.empty((len(paulis), dim), dtype=complex)
        for i, pauli in enumerate(paulis):
            xmask, zmask = _masks(pauli.x, pauli.z, num_qubits)
            coeff = pauli.sign * (1j) ** int(np.count_nonzero(pauli.x & pauli.z))
            self._flat[i] = rows * dim + (rows ^ xmask)
            self._weights[i] = coeff * (-1.0) ** np.bitwise_count(rows & zmask)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """Expectations of a ``(B, 2^n, 2^n)`` stack: real ``(B, M)``."""
        flat = rho.reshape(len(rho), -1)
        return np.einsum("bmk,mk->bm", flat[:, self._flat],
                         self._weights).real


class DensityMatrixSimulator:
    """Exact mixed-state simulation on ``num_qubits`` qubits.

    The per-op methods below apply one gate or channel per pass over rho;
    the device model's production path compiles them into fused blocks
    instead (:mod:`repro.densesim.schedule`) and keeps these as its oracle.
    """

    def __init__(self, num_qubits: int, rho: np.ndarray | None = None):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        check_dense_fits(num_qubits)
        self.num_qubits = int(num_qubits)
        if rho is None:
            self.reset()
        else:
            self.rho = rho

    def reset(self) -> None:
        dim = 2 ** self.num_qubits
        self.rho = np.zeros((dim, dim), dtype=complex)
        self.rho[0, 0] = 1.0

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """``rho -> U rho U†`` on the given qubits."""
        n = self.num_qubits
        qubits = tuple(qubits)
        tensor = self.rho.reshape((2,) * (2 * n))
        tensor = apply_matrix(tensor, matrix, qubits)
        col_axes = tuple(n + q for q in qubits)
        tensor = apply_matrix(tensor, matrix.conj(), col_axes)
        self.rho = tensor.reshape(2 ** n, 2 ** n)

    def apply_kraus(self, ops: Sequence[np.ndarray], qubits: Sequence[int]) -> None:
        """``rho -> sum_i K_i rho K_i†`` on the given qubits."""
        n = self.num_qubits
        qubits = tuple(qubits)
        col_axes = tuple(n + q for q in qubits)
        source = self.rho.reshape((2,) * (2 * n))
        result = np.zeros_like(source)
        for k in ops:
            tensor = apply_matrix(source, k, qubits)
            tensor = apply_matrix(tensor, k.conj(), col_axes)
            result += tensor
        self.rho = result.reshape(2 ** n, 2 ** n)

    def apply_depolarizing(self, p: float, qubits: Sequence[int]) -> None:
        """Depolarizing channel in closed form (no Kraus enumeration).

        ``rho -> (1 - r) rho + r * (tr_q rho) (x) I/2^k`` with
        ``r = p * 4^k / (4^k - 1)``, using ``sum_P P rho P = 4^k D(rho)``.
        """
        k = len(qubits)
        strength = p * (4 ** k) / (4 ** k - 1)
        n = self.num_qubits
        qubits = tuple(qubits)
        tensor = self.rho.reshape((2,) * (2 * n))
        row_axes = qubits
        col_axes = tuple(n + q for q in qubits)
        # partial trace over the channel qubits, then re-insert I/2^k
        traced = np.trace(tensor, axis1=row_axes[0], axis2=col_axes[0]) \
            if k == 1 else None
        if k == 1:
            identity = np.eye(2) / 2.0
            mixed = np.tensordot(identity, traced, axes=0)
            # axes: (row_q, col_q, ...rest) -> restore positions
            mixed = np.moveaxis(mixed, (0, 1), (row_axes[0], col_axes[0]))
        else:
            # trace out both qubits; removing the higher pair first, then
            # adjusting the lower column index for the removed row axis
            (r_hi, c_hi), (r_lo, c_lo) = sorted(zip(row_axes, col_axes),
                                                reverse=True)
            traced = np.trace(tensor, axis1=r_hi, axis2=c_hi)
            traced = np.trace(traced, axis1=r_lo, axis2=c_lo - 1)
            identity = np.eye(4).reshape(2, 2, 2, 2) / 4.0  # (r1, r2, c1, c2)
            mixed = np.tensordot(identity, traced, axes=0)
            mixed = np.moveaxis(mixed, (0, 1, 2, 3),
                                (row_axes[0], row_axes[1],
                                 col_axes[0], col_axes[1]))
        result = (1.0 - strength) * tensor + strength * mixed
        self.rho = result.reshape(2 ** n, 2 ** n)

    def apply_relaxation(self, gamma: float, eta: float, qubit: int) -> None:
        """Thermal relaxation in closed form on one qubit.

        ``gamma = 1 - exp(-t/T1)`` is the decay probability and
        ``eta = exp(-t/T2)`` the total off-diagonal retention:
        populations flow ``|1><1| -> |0><0|``, coherences scale by ``eta``.
        """
        n = self.num_qubits
        tensor = self.rho.reshape((2,) * (2 * n))
        view = np.moveaxis(tensor, (qubit, n + qubit), (0, 1))
        view[0, 1] *= eta
        view[1, 0] *= eta
        view[0, 0] += gamma * view[1, 1]
        view[1, 1] *= 1.0 - gamma

    def apply_instruction(self, inst) -> None:
        self.apply_unitary(inst.matrix(), inst.qubits)

    def apply_circuit(self, circuit: Circuit) -> None:
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("register size mismatch")
        for inst in circuit.instructions:
            self.apply_instruction(inst)

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def pauli_expectation(self, pauli) -> float:
        """``tr[rho P]`` in O(2^n) via the Pauli's sparsity pattern."""
        readout = PauliReadout([pauli], self.num_qubits)
        return float(readout(self.rho[None])[0, 0])

    def expectation_sum(self, hamiltonian,
                        term_attenuation: np.ndarray | None = None) -> float:
        """``tr[rho H]``, optionally scaling each term (readout attenuation)."""
        readout = PauliReadout([p for _, p in hamiltonian.terms()],
                               self.num_qubits)
        values = readout(self.rho[None])[0]
        coeffs = hamiltonian.coefficients
        if term_attenuation is not None:
            values = values * term_attenuation
        return float(coeffs @ values)

    def probabilities(self) -> np.ndarray:
        """Z-basis outcome distribution (diagonal of rho)."""
        probs = np.real(np.diag(self.rho)).copy()
        probs[probs < 0] = 0.0
        total = probs.sum()
        if total <= 0:
            raise ValueError("density matrix has non-positive trace")
        return probs / total

    def probabilities_with_readout_error(
            self, p01: np.ndarray, p10: np.ndarray) -> np.ndarray:
        """Outcome distribution after per-qubit confusion matrices.

        ``p01[k]`` is the probability of reporting 1 when qubit ``k`` is 0;
        ``p10[k]`` of reporting 0 when it is 1 (the asymmetric misassignment
        model of Sec. 4.2.3).
        """
        n = self.num_qubits
        tensor = self.probabilities().reshape((2,) * n)
        for q in range(n):
            confusion = np.array([[1 - p01[q], p10[q]],
                                  [p01[q], 1 - p10[q]]])
            tensor = np.moveaxis(
                np.tensordot(confusion, tensor, axes=([1], [q])), 0, q)
        return tensor.reshape(2 ** n)

    def sample_counts(self, shots: int, rng: np.random.Generator,
                      p01: np.ndarray | None = None,
                      p10: np.ndarray | None = None) -> dict[str, int]:
        """Sample measurement bitstrings (qubit 0 leftmost)."""
        if p01 is not None or p10 is not None:
            n = self.num_qubits
            p01 = np.zeros(n) if p01 is None else np.asarray(p01, dtype=float)
            p10 = np.zeros(n) if p10 is None else np.asarray(p10, dtype=float)
            probs = self.probabilities_with_readout_error(p01, p10)
        else:
            probs = self.probabilities()
        outcomes = rng.choice(len(probs), size=shots, p=probs)
        counts: dict[str, int] = {}
        width = self.num_qubits
        for idx in outcomes:
            key = format(int(idx), f"0{width}b")
            counts[key] = counts.get(key, 0) + 1
        return counts

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def fidelity_with_state(self, state: np.ndarray) -> float:
        """``<psi| rho |psi>`` against a pure reference state."""
        return float(np.real(np.conj(state) @ self.rho @ state))
