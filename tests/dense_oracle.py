"""The unfused device-model walk: the oracle for the fused schedules.

One gate or channel per pass over rho, through the per-op methods of
:class:`repro.densesim.DensityMatrixSimulator` -- exactly the walk the
production ``evolve_with_noise`` performed before it compiled fused
superoperator schedules.  Tests and the dense-fusion micro-benchmark hold
the fused path to this walk at 1e-12.
"""

from __future__ import annotations

import numpy as np

from repro.densesim import DensityMatrixSimulator


def evolve_with_noise_unfused(circuit, noise_model) -> DensityMatrixSimulator:
    """Run ``circuit`` with every noise channel applied as its own op."""
    if noise_model.num_qubits != circuit.num_qubits:
        raise ValueError("noise model size does not match circuit register")
    sim = DensityMatrixSimulator(circuit.num_qubits)
    idle = (noise_model.include_idle_relaxation
            and noise_model.include_relaxation
            and noise_model.t1 is not None)
    clocks = np.zeros(circuit.num_qubits)
    for inst in circuit.instructions:
        if idle:
            # ASAP schedule: relax each operand over the gap it sat idle
            start = max(clocks[q] for q in inst.qubits)
            for q in inst.qubits:
                spec = noise_model.relaxation_spec(q, start - clocks[q])
                if spec is not None:
                    sim.apply_relaxation(spec.params[0], spec.params[1], q)
            duration = noise_model.gate_duration(inst)
            for q in inst.qubits:
                clocks[q] = start + duration
        sim.apply_instruction(inst)
        for spec in noise_model.channels_after(inst):
            if spec.kind == "depol":
                sim.apply_depolarizing(spec.params[0], spec.qubits)
            elif spec.kind == "relax":
                sim.apply_relaxation(spec.params[0], spec.params[1],
                                     spec.qubits[0])
            elif spec.kind == "unitary_zz":
                (op,) = spec.kraus_operators()
                sim.apply_unitary(op, spec.qubits)
            else:
                sim.apply_kraus(spec.kraus_operators(), spec.qubits)
    if idle:
        # align every qubit to the circuit's end time (pre-measurement)
        end = float(clocks.max())
        for q in range(circuit.num_qubits):
            spec = noise_model.relaxation_spec(q, end - clocks[q])
            if spec is not None:
                sim.apply_relaxation(spec.params[0], spec.params[1], q)
    return sim
