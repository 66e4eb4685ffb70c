"""The boolean-matrix Pauli walks: the oracle for the word-packed kernels.

Every conjugation here runs on :class:`repro.paulis.PauliTable` (one bool
per qubit column) through the masked ``apply_gate_to_table`` path, one
gate or one angle group per pass -- the walk the production losses and
transformations performed before they went packed-only (tableau semantics
after Aaronson-Gottesman, arXiv:quant-ph/0406196).  Tests and the
qubit-scaling bench hold the packed production path to these functions
with exact equality.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.ansatz import (
    clapton_transformation_circuit,
    hardware_efficient_ansatz,
    transformation_slots,
)
from repro.core.transformation import embed_table
from repro.noise.clifford_model import (
    CliffordCircuitPlan,
    _inverse_gate_tableau,
)
from repro.stabilizer import CliffordTableau, gate_tableau
from repro.stabilizer.tableau import apply_gate_to_table


def from_circuit(circuit) -> CliffordTableau:
    """``CliffordTableau.from_circuit`` with the gate loop on bool rows."""
    if not circuit.is_clifford():
        raise ValueError("circuit is not Clifford")
    tableau = CliffordTableau.identity(circuit.num_qubits)
    for inst in circuit.instructions:
        gate = gate_tableau(inst.name, tuple(float(p) for p in inst.params))
        apply_gate_to_table(tableau.rows, gate, inst.qubits)
    return tableau


def transform_table(hamiltonian, gamma, entanglement: str = "circular"):
    """``repro.core.transformation.transform_table`` on the bool layout."""
    circuit = clapton_transformation_circuit(gamma, hamiltonian.num_qubits,
                                             entanglement)
    table = hamiltonian.table.copy()
    for inst in reversed(circuit.instructions):
        apply_gate_to_table(table, _inverse_gate_tableau(inst), inst.qubits)
    return table


def transform_table_many(hamiltonian, gammas, entanglement: str = "circular"):
    """Stacked population transformation through per-genome row masks.

    Three masked LUT conjugations per slot (one per non-identity level)
    over a ``(P*M, n)`` bool table; level 0 conjugates nothing.
    """
    gammas = np.asarray(gammas, dtype=np.int64)
    slots = transformation_slots(hamiltonian.num_qubits, entanglement)
    num_terms = hamiltonian.table.num_rows
    genome_of_row = np.repeat(np.arange(len(gammas)), num_terms)
    stacked = hamiltonian.table.tile(len(gammas))
    for kind, qubits, gene in reversed(slots):
        levels = gammas[:, gene]
        for level in (1, 2, 3):
            members = levels == level
            if not members.any():
                continue
            rows = members[genome_of_row]
            if kind == "pair":
                k, l = qubits
                gate, targets = {
                    1: (gate_tableau("cx"), (k, l)),
                    2: (gate_tableau("cx"), (l, k)),
                    3: (gate_tableau("swap"), (k, l)),
                }[level]
            else:
                gate = gate_tableau(kind, (-float(level * (math.pi / 2)),))
                targets = qubits
            apply_gate_to_table(stacked, gate, targets, rows=rows)
    return stacked


def _per_genome(coeffs, values, num_genomes: int) -> np.ndarray:
    # the production losses' exact reduction: one dot per genome block
    m = len(coeffs)
    return np.array([float(coeffs @ values[p * m:(p + 1) * m])
                     for p in range(num_genomes)])


def clapton_losses(loss, gammas) -> np.ndarray:
    """``ClaptonLoss.evaluate_many`` with every walk on the bool layout."""
    problem = loss.problem
    gammas = np.asarray(gammas, dtype=np.int64)
    coeffs = problem.hamiltonian.coefficients
    stacked = transform_table_many(problem.hamiltonian, gammas,
                                   problem.entanglement)
    noiseless = _per_genome(coeffs, stacked.expectation_all_zeros(),
                            len(gammas))
    eval_stack = embed_table(stacked, problem.positions,
                             problem.num_eval_qubits)
    # the loss's cached A'(0), so timing the oracle excludes the rebind
    values = loss.clifford_model.noisy_zero_state_term_values(
        loss._skeleton, eval_stack)
    noisy = _per_genome(coeffs, values, len(gammas))
    return loss.noisy_weight * noisy + loss.noiseless_weight * noiseless


def cafqa_losses(loss, genomes) -> np.ndarray:
    """``CafqaLoss`` / ``NcafqaLoss.evaluate_many`` on the bool layout.

    The logical ansatz is walked through per-angle-group row masks
    (:meth:`CliffordCircuitPlan.reverse_schedule`) instead of the fused
    leveled passes.
    """
    problem = loss.problem
    genomes = np.asarray(genomes, dtype=np.int64)
    thetas = genomes * (math.pi / 2)
    coeffs = problem.hamiltonian.coefficients
    logical = CliffordCircuitPlan(hardware_efficient_ansatz(
        problem.num_logical_qubits, problem.entanglement))
    conj = problem.hamiltonian.table.tile(len(genomes))
    for inst, rows in logical.reverse_schedule(thetas, len(coeffs)):
        apply_gate_to_table(conj, _inverse_gate_tableau(inst), inst.qubits,
                            rows=rows)
    noiseless = _per_genome(coeffs, conj.expectation_all_zeros(),
                            len(genomes))
    if not loss.noise_aware:
        return np.zeros(len(genomes)) + noiseless
    mapped = problem.mapped_hamiltonian()
    schedule = CliffordCircuitPlan(problem.eval_ansatz).reverse_schedule(
        thetas, mapped.table.num_rows)
    values = loss.clifford_model.noisy_zero_state_term_values_steps(
        schedule, mapped.table.tile(len(genomes)))
    return _per_genome(mapped.coefficients, values, len(genomes)) + noiseless
