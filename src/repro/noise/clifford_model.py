"""The Clifford noise model: Clapton's classically efficient L_N evaluator.

The paper evaluates the noisy cost term (Eq. 9)

    L_N(gamma) = <0| A~†(0) H(gamma) A~(0) |0>

with stim by sampling stochastic-Pauli noise shots.  Because every modeled
channel is a *Pauli channel* and the skeleton ``A(0)`` is Clifford, the same
quantity has a closed form: Pauli channels are diagonal in the Pauli
(Heisenberg) basis, so each Hamiltonian term picks up a scalar attenuation
factor at every noise location as it is pulled back through the circuit:

* 1q depolarizing of strength ``p``: factor ``1 - 4p/3`` if the term acts
  non-trivially on the gate qubit;
* 2q depolarizing of strength ``p``: factor ``1 - 16p/15`` if the term
  touches either gate qubit;
* readout flip ``p_k``: factor ``1 - 2 p_k`` per measured support qubit;
* (optional extension) Pauli-twirled thermal relaxation: a per-qubit,
  Pauli-dependent factor.

``noisy_zero_state_energy`` walks the circuit backward once, conjugating all
M terms simultaneously through gate tableaus and accumulating the factors --
an exact, deterministic O(M * L) evaluation that replaces stim's Monte Carlo
sampling (a sampling path is kept in :func:`sample_noisy_energy` for
validation and parity with the paper's implementation).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..circuits.ansatz import is_identity_angle
from ..circuits.circuit import Circuit, _INVERSE_NAME
from ..paulis.packed_table import PackedPauliTable
from ..paulis.pauli_sum import PauliSum
from ..stabilizer.simulator import StabilizerSimulator
from ..stabilizer.tableau import CliffordTableau, apply_gate_to_table, gate_tableau
from .model import NoiseModel
from .twirling import pauli_channel_attenuation, twirled_relaxation_probabilities

_TWO_QUBIT_PAULIS = [(a, b) for a in "IXYZ" for b in "IXYZ"][1:]


def _inverse_gate_tableau(inst) -> CliffordTableau:
    if inst.spec.num_params:
        return gate_tableau(inst.name, tuple(-float(p) for p in inst.params))
    return gate_tableau(_INVERSE_NAME.get(inst.name, inst.name))


class CliffordNoiseModel:
    """Pauli-channel projection of a :class:`NoiseModel` for L_N evaluation.

    Args:
        noise_model: The device parameters.
        include_twirled_relaxation: Model T1/T2 as the Pauli-twirled
            relaxation channel.  Off by default to match the paper's stim
            model, which leaves relaxation out of the optimization loss;
            the ablation bench measures what turning it on buys.
        include_basis_prep_error: Attach one single-qubit depolarizing
            factor per X/Y support qubit of each measured term, modeling the
            noisy measurement-basis rotations (Sec. 4.2.3).
    """

    def __init__(self, noise_model: NoiseModel,
                 include_twirled_relaxation: bool = False,
                 include_basis_prep_error: bool = True):
        self.noise_model = noise_model
        self.include_twirled_relaxation = include_twirled_relaxation
        self.include_basis_prep_error = include_basis_prep_error
        self._twirl_cache: dict[tuple[int, float], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Attenuation pieces
    # ------------------------------------------------------------------
    def measurement_attenuations(self, table) -> np.ndarray:
        """Per-term factor from readout error and basis-prep gate error."""
        nm = self.noise_model
        att = nm.readout_z_attenuation()
        support = table.supports_mask()
        factors = np.prod(np.where(support, att[None, :], 1.0), axis=1)
        if self.include_basis_prep_error:
            prep = 1.0 - 4.0 * nm.depol_1q / 3.0
            factors = factors * np.prod(
                np.where(table.unpack_x(), prep[None, :], 1.0), axis=1)
        return factors

    def _relaxation_factors_by_code(self, qubit: int, duration: float
                                    ) -> np.ndarray:
        """Attenuation for codes ``x + 2z -> (I, X, Z, Y)`` on one qubit."""
        key = (qubit, duration)
        cached = self._twirl_cache.get(key)
        if cached is None:
            nm = self.noise_model
            probs = twirled_relaxation_probabilities(
                duration, float(nm.t1[qubit]), float(nm.t2[qubit]))
            f_i, f_x, f_y, f_z = pauli_channel_attenuation(probs)
            cached = np.array([f_i, f_x, f_z, f_y])
            self._twirl_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # The L_N evaluation
    # ------------------------------------------------------------------
    def noisy_zero_state_energy(self, circuit: Circuit,
                                hamiltonian: PauliSum) -> float:
        """Exact noisy ``<0| A~† H A~ |0>`` for a Clifford circuit ``A``.

        Walks the circuit in reverse (Heisenberg picture), attenuating at
        each noise location and conjugating the whole term table through the
        inverse gate tableau, on the word-packed layout.
        """
        return self.noisy_zero_state_energy_table(
            circuit, PackedPauliTable.from_table(hamiltonian.table),
            hamiltonian.coefficients)

    def noisy_zero_state_energy_table(self, circuit: Circuit, table,
                                      coefficients: np.ndarray) -> float:
        """Table-level variant used by Clapton's hot loop.

        Accepts a raw :class:`~repro.paulis.table.PauliTable` (rows may carry
        +-1 signs from a preceding transformation; they fold into the
        all-zeros expectation) so candidate evaluation avoids PauliSum
        canonicalization overhead.
        """
        values = self.noisy_zero_state_term_values(circuit, table)
        return float(np.asarray(coefficients) @ values)

    def noisy_zero_state_term_values(self, circuit: Circuit, table
                                     ) -> np.ndarray:
        """Per-term noisy expectations ``<0| A~† P_i A~ |0>`` (one pass).

        The coefficient-weighted sum of these is the L_N energy; the
        Clifford fast-path estimator exposes them individually.
        """
        return self.noisy_zero_state_term_values_steps(
            [(inst, None) for inst in reversed(circuit.instructions)], table)

    def noisy_zero_state_term_values_steps(self, steps, table) -> np.ndarray:
        """The same backward pass over an explicit *reverse-order* schedule.

        ``steps`` is a sequence of ``(instruction, rows)`` pairs already in
        reverse circuit order, where ``rows`` is either ``None`` (the gate
        applies to every table row) or a boolean row mask.  This is the
        population-batched entry point: stack one Hamiltonian table copy
        per genome (:meth:`~repro.paulis.table.PauliTable.tile`), build a
        schedule whose masks select each genome's rows for its own gate
        choices (:class:`CliffordCircuitPlan`), and all genomes' term
        values come out of one vectorized walk.  Every arithmetic step is
        row-wise, so masked results are bit-identical to running the
        serial pass per genome.

        ``table`` may be either representation (boolean-matrix or
        word-packed); the walk only uses the shared column-accessor
        surface, and packed results are bit-identical to the boolean path.
        """
        nm = self.noise_model
        table = table.copy()
        factors = self.measurement_attenuations(table)
        relax = (self.include_twirled_relaxation and nm.t1 is not None)
        flips = nm.logical_flip_probs
        flip_by_code = None
        if flips is not None:
            from .twirling import pauli_channel_attenuation

            probs = np.array([1.0 - sum(flips), *flips])
            f_i, f_x, f_y, f_z = pauli_channel_attenuation(probs)
            flip_by_code = np.array([f_i, f_x, f_z, f_y])
        for inst, rows in steps:
            qubits = list(inst.qubits)
            sel = slice(None) if rows is None else rows
            p = nm.gate_depol(inst)
            if p > 0:
                touched = table.touches_any(qubits)
                if rows is not None:
                    touched &= rows
                factor = (1.0 - 4.0 * p / 3.0) if len(qubits) == 1 \
                    else (1.0 - 16.0 * p / 15.0)
                factors[touched] *= factor
            if flip_by_code is not None:
                for q in qubits:
                    factors[sel] *= flip_by_code[table.codes_on(q, sel)]
            if relax:
                duration = nm.gate_duration(inst)
                for q in qubits:
                    by_code = self._relaxation_factors_by_code(q, duration)
                    factors[sel] *= by_code[table.codes_on(q, sel)]
            apply_gate_to_table(table, _inverse_gate_tableau(inst),
                                inst.qubits, rows=rows)
        return factors * table.expectation_all_zeros()


_TWO_PI = 2.0 * math.pi


class CliffordCircuitPlan:
    """Population schedule over a parameterized Clifford-point template.

    Precomputes, once per ansatz template, the instruction skeleton that
    :func:`~repro.circuits.ansatz.drop_identity_rotations` would leave after
    binding (explicit ``i`` gates and zero-angle *bound* rotations are
    dropped at plan time), then turns a ``(P, d)`` batch of parameter points
    into one reverse-order ``(instruction, rows)`` schedule: points sharing
    the exact same angle at a parameterized rotation are grouped under one
    boolean row mask, so a whole population is conjugated through
    :meth:`CliffordNoiseModel.noisy_zero_state_term_values_steps` (or plain
    masked :func:`~repro.stabilizer.tableau.apply_gate_to_table` calls) in
    a handful of numpy ops per slot.  The per-point instruction sequence is
    identical to ``drop_identity_rotations(template.bind(theta))``, so
    batched results are bit-identical to the serial schedule.
    """

    def __init__(self, template: Circuit, tol: float = 1e-12):
        from ..circuits.ansatz import bound_skeleton_steps

        self.num_qubits = template.num_qubits
        self.num_parameters = template.num_parameters
        self.tol = tol
        #: (instruction, parameter index | None); None = static instruction
        self.steps: list[tuple] = bound_skeleton_steps(template, tol)

    def _check_thetas(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[1] < self.num_parameters:
            raise ValueError(f"need {self.num_parameters} parameter values, "
                             f"got {thetas.shape[1]}")
        return thetas

    def is_clifford(self, thetas: np.ndarray) -> bool:
        """Whether every point binds the template to a Clifford circuit."""
        thetas = self._check_thetas(thetas)
        for inst, index in self.steps:
            if index is None:
                if not inst.is_bound or not inst.spec.is_clifford(
                        tuple(float(p) for p in inst.params)):
                    return False
                continue
            for angle in np.unique(thetas[:, index]):
                if is_identity_angle(float(angle), self.tol):
                    continue  # dropped as an exact identity
                if not inst.spec.is_clifford((float(angle),)):
                    return False
        return True

    def reverse_schedule(self, thetas: np.ndarray, rows_per_point: int
                         ) -> list[tuple]:
        """``(instruction, rows)`` pairs in reverse circuit order.

        ``rows_per_point`` is the number of stacked table rows each point
        owns (the Hamiltonian's term count M); point ``p`` owns the
        contiguous row block ``[p*M, (p+1)*M)``.  Static instructions get
        ``rows=None`` (every point shares them); parameterized rotations
        get one entry per distinct kept angle with the matching row mask,
        zero angles dropping out exactly as the serial identity-drop does.
        """
        thetas = self._check_thetas(thetas)
        num_points = len(thetas)
        point_of_row = np.repeat(np.arange(num_points), rows_per_point)
        schedule: list[tuple] = []
        for inst, index in reversed(self.steps):
            if index is None:
                schedule.append((inst, None))
                continue
            angles = thetas[:, index]
            # vectorized is_identity_angle over the whole population
            folded = angles % _TWO_PI
            kept = np.minimum(folded, _TWO_PI - folded) >= self.tol
            for angle in np.unique(angles[kept]):
                members = kept & (angles == angle)
                bound = replace(inst, params=(float(angle),))
                schedule.append((bound, members[point_of_row]))
        return schedule

    def reverse_leveled_schedule(self, thetas: np.ndarray,
                                 rows_per_point: int) -> list[tuple]:
        """Reverse schedule with parameterized slots fused per level.

        The packed-layout counterpart of :meth:`reverse_schedule`: static
        instructions come out as ``("gate", inst, None)`` exactly as
        before, but a parameterized rotation becomes one
        ``("slot", bound_insts, qubits, level_of_row)`` entry -- the
        distinct kept angles as bound instructions, plus a per-row level
        index (0 = dropped/identity) -- which
        :func:`~repro.stabilizer.tableau.apply_gate_levels_to_table`
        applies in a single unmasked pass.  Each row is touched by
        exactly one angle group in either schedule, so the per-row
        arithmetic (and hence the result) is bit-identical.
        """
        thetas = self._check_thetas(thetas)
        num_points = len(thetas)
        point_of_row = np.repeat(np.arange(num_points), rows_per_point)
        schedule: list[tuple] = []
        for inst, index in reversed(self.steps):
            if index is None:
                schedule.append(("gate", inst, None))
                continue
            angles = thetas[:, index]
            folded = angles % _TWO_PI
            kept = np.minimum(folded, _TWO_PI - folded) >= self.tol
            distinct = np.unique(angles[kept])
            if distinct.size == 0:
                continue
            level_of_point = np.zeros(num_points, dtype=np.int64)
            bound_insts = []
            for level, angle in enumerate(distinct, start=1):
                level_of_point[kept & (angles == angle)] = level
                bound_insts.append(replace(inst, params=(float(angle),)))
            schedule.append(("slot", bound_insts, list(inst.qubits),
                             level_of_point[point_of_row]))
        return schedule


def sample_noisy_energy(circuit: Circuit, hamiltonian: PauliSum,
                        noise_model: NoiseModel, shots: int,
                        rng: np.random.Generator,
                        include_basis_prep_error: bool = True) -> float:
    """Monte-Carlo estimate of the same quantity, stim style.

    Each shot samples a concrete Pauli-error realization of every gate's
    depolarizing channel, runs the stabilizer simulator, and evaluates all
    Hamiltonian terms exactly on the resulting stabilizer state.  Readout
    and basis-prep errors are folded in analytically (they commute with the
    estimate and sampling them would only add variance).

    Used in tests to validate :class:`CliffordNoiseModel` and in benchmarks
    to compare the deterministic evaluator's cost with the sampling cost the
    paper paid.
    """
    model = CliffordNoiseModel(noise_model,
                               include_basis_prep_error=include_basis_prep_error)
    meas_factors = model.measurement_attenuations(hamiltonian.table)
    coeffs = hamiltonian.coefficients * meas_factors
    terms = hamiltonian.table.to_paulis()
    total = 0.0
    from ..paulis.pauli import PauliString

    for _ in range(shots):
        sim = StabilizerSimulator(circuit.num_qubits)
        for inst in circuit.instructions:
            sim.apply_gate(inst.name, inst.qubits,
                           tuple(float(p) for p in inst.params))
            p = noise_model.gate_depol(inst)
            if p <= 0 or rng.random() >= p:
                continue
            if len(inst.qubits) == 1:
                label = "XYZ"[rng.integers(0, 3)]
                error = PauliString.from_sparse({inst.qubits[0]: label},
                                                circuit.num_qubits)
            else:
                a, b = _TWO_QUBIT_PAULIS[rng.integers(0, 15)]
                factors = {q: c for q, c in zip(inst.qubits, (a, b)) if c != "I"}
                error = PauliString.from_sparse(factors, circuit.num_qubits)
            sim.apply_pauli(error)
        total += float(coeffs @ np.array([sim.expectation(t) for t in terms]))
    return total / shots
