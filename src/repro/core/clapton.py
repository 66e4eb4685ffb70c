"""Initialization results and the legacy method drivers.

:class:`InitializationResult` is the uniform outcome of *any* registered
initialization method (see :mod:`repro.methods`): the best genome and
loss, full engine bookkeeping, and the decoded VQE starting point -- the
Hamiltonian the subsequent VQE should optimize, the starting parameters,
and the initial-state circuit/observable on the evaluation register.

``clapton()``, ``cafqa()``, and ``ncafqa()`` remain as thin wrappers over
the registered method instances in :mod:`repro.methods.builtin`; they
produce bit-identical numbers to the historical in-place drivers for
identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotation only; repro.search imports stay one-way
    from ..search.base import SearchResult

from ..circuits.circuit import Circuit
from ..noise.clifford_model import CliffordNoiseModel
from ..optim.engine import EngineConfig, EngineResult
from ..paulis.pauli_sum import PauliSum
from .problem import VQEProblem
from .transformation import embed_table


@dataclass
class InitializationResult:
    """Outcome of one initialization method on one problem.

    Attributes:
        method: Registered method name (``"clapton"``, ``"cafqa"``,
            ``"ncafqa"``, ``"random_clifford"``, ``"vanilla"``, or any
            user-registered name).
        problem: The problem bundle the method ran on.
        genome: Best genome found (``gamma`` for Clapton, Clifford rotation
            levels for the ansatz-angle methods).
        loss: Best engine loss (the method's own cost, not a device energy).
        engine: Full engine bookkeeping (rounds, timings, evaluation count).
        vqe_hamiltonian: The *logical* Hamiltonian the post-method VQE
            optimizes -- transformed for Clapton, original otherwise.
        initial_theta: VQE starting parameters (zeros for Clapton,
            ``genome * pi/2`` for the ansatz-angle methods).
        init_circuit: Optional explicit initial-state circuit (methods
            whose initial state is not the bound ansatz); ``None`` means
            ``A'(initial_theta)``.
        search: The :class:`~repro.search.SearchResult` that produced the
            genome (strategy name + per-round trace); ``None`` for
            results assembled outside :meth:`InitializationMethod.run`.
        mitigation: Canonical name of the mitigation strategy requested
            for this run's noisy evaluations (``repro mitigations``);
            ``"none"`` -- the default -- leaves every estimate raw.
            Recorded here so downstream evaluation surfaces
            (``evaluate_initial_point``, ``run_vqe``) pick it up without
            re-threading the axis.
    """

    method: str
    problem: VQEProblem
    genome: np.ndarray
    loss: float
    engine: EngineResult
    vqe_hamiltonian: PauliSum
    initial_theta: np.ndarray
    init_circuit: Circuit | None = None
    search: "SearchResult | None" = None
    mitigation: str = "none"

    # ------------------------------------------------------------------
    # The initial point, as evaluated on the device register
    # ------------------------------------------------------------------
    def initial_circuit(self) -> Circuit:
        """Bound Clifford circuit preparing the initial state on hardware.

        The bound, identity-free ansatz at ``initial_theta`` -- for
        Clapton (``theta = 0``) that is exactly the skeleton ``A'(0)`` --
        unless the method supplied an explicit ``init_circuit``.
        """
        if self.init_circuit is not None:
            return self.init_circuit
        return self.problem.bound_ansatz(self.initial_theta)

    def initial_observable(self) -> PauliSum:
        """The measured Hamiltonian on the evaluation register.

        ``vqe_hamiltonian`` re-indexed onto the device register: the
        transformed problem for Clapton, the plain mapped Hamiltonian for
        the ansatz-angle methods -- one rule for every method.
        """
        problem = self.problem
        table = embed_table(self.vqe_hamiltonian.table, problem.positions,
                            problem.num_eval_qubits)
        return PauliSum(table, self.vqe_hamiltonian.coefficients.copy())


def clapton(problem: VQEProblem, config: EngineConfig | None = None,
            clifford_model: CliffordNoiseModel | None = None,
            noisy_weight: float = 1.0, noiseless_weight: float = 1.0,
            executor=None) -> InitializationResult:
    """Run the Clapton transformation search (Sec. 4.1).

    Args:
        problem: Problem bundle (transpiled or logical).
        config: Engine hyperparameters; defaults to the paper's
            s=10 / m=100 / k=20 / |S|=100 working point.
        clifford_model: Override the L_N noise projection (ablations).
        noisy_weight / noiseless_weight: Cost-term weights (ablations).
        executor: Execution backend for the engine's GA rounds (any
            :mod:`repro.execution` executor); serial by default.
    """
    from ..methods.builtin import ClaptonMethod

    method = ClaptonMethod(clifford_model=clifford_model,
                           noisy_weight=noisy_weight,
                           noiseless_weight=noiseless_weight)
    return method.run(problem, config=config, executor=executor)


def cafqa(problem: VQEProblem, config: EngineConfig | None = None,
          executor=None) -> InitializationResult:
    """The CAFQA baseline: noiseless Clifford search over ansatz angles."""
    from ..methods.builtin import CafqaMethod

    return CafqaMethod().run(problem, config=config, executor=executor)


def ncafqa(problem: VQEProblem, config: EngineConfig | None = None,
           clifford_model: CliffordNoiseModel | None = None,
           executor=None) -> InitializationResult:
    """Noise-aware CAFQA: the paper's strengthened baseline (Sec. 5.2)."""
    from ..methods.builtin import NcafqaMethod

    return NcafqaMethod(clifford_model=clifford_model).run(
        problem, config=config, executor=executor)
