"""The benchmark's workloads and the seed -> inputs generator.

One *task* is one call to ``Experiment.run`` on the toronto backend: every
listed method searches (the Figure-4 engine at the ``FAST_ENGINE`` shape),
then its initial point is evaluated on the tiers, then an optional SPSA
VQE runs.  ``search-24q`` has no dense tier and no E0 (a 24-qubit density
matrix is out of reach): it runs the same search and evaluates the
noiseless and Clifford-model tiers with the calls ``evaluate_initial_point``
makes, minus the dense one.

The engine runs a fixed number of rounds (``retry_rounds = max_rounds``),
so the work in a task does not depend on how soon a seed's search
converges; the seed still changes every genome the search visits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str            # hamiltonian registry spec
    methods: tuple[str, ...]
    rounds: int               # engine rounds per method, fixed
    vqe_iterations: int
    mitigation: str
    dense_tier: bool          # False: no E0, no device-model tier


WORKLOADS = {w.name: w for w in (
    Workload(
        name="search-24q", benchmark="ising:n=24,J=0.5",
        methods=("clapton", "ncafqa"), rounds=2, vqe_iterations=0,
        mitigation="none", dense_tier=False),
    Workload(
        name="zne-6q", benchmark="xxz:n=6,J=0.5",
        methods=("clapton", "cafqa"), rounds=2, vqe_iterations=30,
        mitigation="zne:folds=3|readout", dense_tier=True),
)}


@dataclass(frozen=True)
class TaskInputs:
    """Everything the program receives for one workload at one seed."""

    workload: Workload
    seed: int
    engine_seed: int
    vqe_seed: int

    def engine_config(self):
        from repro.experiments import FAST_ENGINE

        rounds = self.workload.rounds
        return replace(FAST_ENGINE, seed=self.engine_seed,
                       retry_rounds=rounds, max_rounds=rounds)


def make_inputs(name: str, seed: int) -> TaskInputs:
    """Inputs of workload ``name`` at ``seed``; equal seeds, equal inputs."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{sorted(WORKLOADS)}")
    engine_seed, vqe_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    return TaskInputs(workload=WORKLOADS[name], seed=seed,
                      engine_seed=engine_seed, vqe_seed=vqe_seed)
