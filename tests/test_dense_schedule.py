"""Fused superoperator schedules against the unfused oracle walk.

The contract (fused == unfused) at 1e-12 on random circuits across every
channel kind the device model emits, plus the physical sanity checks of a
channel implementation: trace preservation and Hermiticity of the output,
and the edge rates 0 and 1.
"""

import math

import numpy as np
import pytest

from dense_oracle import evolve_with_noise_unfused
from repro.circuits import Circuit
from repro.densesim import (
    BatchedDensityMatrixSimulator,
    DensityMatrixSimulator,
    PauliReadout,
    ScheduleCompiler,
    evolve_steps_with_noise,
    evolve_with_noise,
    measurement_attenuations,
    noisy_energy,
    schedule as schedule_module,
)
from repro.noise import NoiseModel
from repro.obs import DENSE
from repro.paulis import PauliString, PauliSum, random_pauli

TOL = 1e-12
SIZES = (1, 2, 3, 5, 7)

_ONE_QUBIT = ("h", "s", "sdg", "sx", "x", "y", "z")
_TWO_QUBIT = ("cx", "cz", "swap")
_ROTATIONS = ("rx", "ry", "rz")


def random_circuit(n, depth, rng, two_qubit_share=0.4):
    """Rotations, fixed 1q Cliffords and 2q gates in both qubit orders."""
    circ = Circuit(n)
    for _ in range(depth):
        roll = rng.random()
        if n >= 2 and roll < two_qubit_share:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            circ.append(_TWO_QUBIT[rng.integers(len(_TWO_QUBIT))], [a, b])
        elif roll < 0.75:
            circ.append(_ROTATIONS[rng.integers(3)], [int(rng.integers(n))],
                        [float(rng.uniform(0, 2 * math.pi))])
        else:
            circ.append(_ONE_QUBIT[rng.integers(len(_ONE_QUBIT))],
                        [int(rng.integers(n))])
    return circ


def _rng_rates(n, rng):
    return dict(depol_1q=rng.uniform(1e-4, 5e-3, n),
                depol_2q_default=float(rng.uniform(1e-3, 3e-2)),
                readout_p01=0.01, readout_p10=0.02)


#: name -> NoiseModel factory(n, rng); together they cover every channel
#: kind ``NoiseModel.channels_after`` and the idle schedule emit.
MODELS = {
    "depol": lambda n, rng: NoiseModel(num_qubits=n, **_rng_rates(n, rng)),
    "relax": lambda n, rng: NoiseModel(
        num_qubits=n, depol_1q=0.0, depol_2q_default=0.0,
        t1=rng.uniform(20e-6, 90e-6, n), t2=rng.uniform(10e-6, 120e-6, n)),
    "coherent_zz": lambda n, rng: NoiseModel(
        num_qubits=n, coherent_zz_angle_2q=0.07, **_rng_rates(n, rng)),
    "logical_flips": lambda n, rng: NoiseModel.logical(
        n, flip_x=2e-3, flip_z=5e-3),
    "idle_relaxation": lambda n, rng: NoiseModel(
        num_qubits=n, t1=rng.uniform(20e-6, 90e-6, n),
        include_idle_relaxation=True, **_rng_rates(n, rng)),
    "everything": lambda n, rng: NoiseModel(
        num_qubits=n, t1=rng.uniform(20e-6, 90e-6, n),
        coherent_zz_angle_2q=-0.05, logical_flip_probs=(1e-3, 2e-4, 3e-3),
        include_idle_relaxation=True, **_rng_rates(n, rng)),
    "rate_0": lambda n, rng: NoiseModel.noiseless(n),
    "rate_1": lambda n, rng: NoiseModel(
        num_qubits=n, depol_1q=1.0, depol_2q_default=1.0,
        t1=np.full(n, 1e-12), logical_flip_probs=(1.0, 0.0, 0.0),
        include_idle_relaxation=True),
}


def assert_physical(rho):
    assert abs(np.trace(rho) - 1.0) < TOL, "trace not preserved"
    np.testing.assert_allclose(rho, rho.conj().T, atol=TOL,
                               err_msg="result not Hermitian")


class TestFusedMatchesOracle:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("n", SIZES)
    def test_random_circuits(self, n, model):
        rng = np.random.default_rng(100 * n + len(model))
        for _ in range(2):
            circ = random_circuit(n, 6 * n + 4, rng)
            noise = MODELS[model](n, rng)
            fused = evolve_with_noise(circ, noise).rho
            oracle = evolve_with_noise_unfused(circ, noise).rho
            np.testing.assert_allclose(fused, oracle, rtol=0, atol=TOL)
            assert_physical(fused)

    @pytest.mark.parametrize("n", SIZES)
    def test_one_qubit_only_circuits(self, n):
        rng = np.random.default_rng(n)
        circ = random_circuit(n, 5 * n, rng, two_qubit_share=0.0)
        noise = MODELS["everything"](n, rng)
        fused = evolve_with_noise(circ, noise).rho
        oracle = evolve_with_noise_unfused(circ, noise).rho
        np.testing.assert_allclose(fused, oracle, rtol=0, atol=TOL)
        assert_physical(fused)

    @pytest.mark.parametrize("gate", _TWO_QUBIT)
    def test_two_qubit_gates_given_high_qubit_first(self, gate):
        """(b, a) with b > a, interleaved with (a, b) on the same pair."""
        n = 4
        rng = np.random.default_rng(7)
        circ = Circuit(n)
        for q in range(n):
            circ.ry(float(rng.uniform(0, 2 * math.pi)), q)
        circ.append(gate, [3, 1])
        circ.rz(0.3, 1)
        circ.append(gate, [1, 3])
        circ.append(gate, [2, 0])
        circ.rx(1.1, 3)
        circ.append(gate, [3, 1])
        noise = MODELS["everything"](n, rng)
        fused = evolve_with_noise(circ, noise).rho
        oracle = evolve_with_noise_unfused(circ, noise).rho
        np.testing.assert_allclose(fused, oracle, rtol=0, atol=TOL)

    def test_empty_circuit_is_the_zero_state(self):
        noise = MODELS["everything"](3, np.random.default_rng(0))
        rho = evolve_with_noise(Circuit(3), noise).rho
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(rho, expected)

    def test_energies_match(self):
        n = 5
        rng = np.random.default_rng(3)
        circ = random_circuit(n, 30, rng)
        noise = MODELS["idle_relaxation"](n, rng)
        ham = PauliSum.from_terms(
            [(float(rng.normal()),
              random_pauli(n, rng).to_label(with_sign=False))
             for _ in range(12)])
        fused = noisy_energy(circ, ham, noise)
        oracle = evolve_with_noise_unfused(circ, noise).expectation_sum(
            ham, measurement_attenuations(ham, noise))
        assert fused == pytest.approx(oracle, abs=TOL)


class TestSchedule:
    def test_one_block_per_two_qubit_gate(self):
        """1q work folds into 2q blocks; only untouched qubits add blocks."""
        rng = np.random.default_rng(0)
        circ = Circuit(6)
        for inst in random_circuit(4, 30, rng).instructions:
            circ.append(inst.name, inst.qubits, inst.params)
        circ.h(4)          # qubit 4: one-qubit work only; qubit 5: idle
        two_qubit = sum(len(inst.qubits) == 2 for inst in circ.instructions)
        assert two_qubit > 0
        noise = MODELS["everything"](6, rng)   # idle relaxation on all six
        schedule = ScheduleCompiler(noise).compile(
            [(inst, None) for inst in circ.instructions])
        assert schedule.num_blocks == two_qubit + 2

    def test_channel_superoperators_built_once_per_compiler(self, monkeypatch):
        rng = np.random.default_rng(1)
        circ = random_circuit(4, 20, rng)
        noise = MODELS["everything"](4, rng)
        compiler = ScheduleCompiler(noise)
        evolve_with_noise(circ, noise, compiler=compiler)
        calls = []
        original = type(noise).channels_after
        monkeypatch.setattr(type(noise), "channels_after",
                            lambda self, inst: calls.append(inst)
                            or original(self, inst))
        again = evolve_with_noise(circ, noise, compiler=compiler).rho
        assert calls == []
        np.testing.assert_array_equal(
            again, evolve_with_noise(circ, noise, compiler=compiler).rho)

    def test_compiler_for_another_model_is_refused(self):
        noise = NoiseModel.uniform(2)
        other = NoiseModel.uniform(2)
        with pytest.raises(ValueError, match="another noise model"):
            evolve_with_noise(Circuit(2), noise,
                              compiler=ScheduleCompiler(other))

    def test_counters_advance(self):
        rng = np.random.default_rng(2)
        circ = random_circuit(3, 12, rng)
        noise = MODELS["depol"](3, rng)
        before = DENSE.snapshot()
        schedule = ScheduleCompiler(noise).compile(
            [(inst, None) for inst in circ.instructions])
        schedule.run()
        delta = DENSE.delta(before)
        assert delta["schedules"] == 1
        assert delta["blocks"] == schedule.num_blocks > 0
        assert delta["elements"] == schedule.num_blocks * 4 ** 3

    def test_counters_publish_as_prometheus_families(self):
        from repro.obs import REGISTRY, publish_kernel_metrics

        names = ("schedules", "blocks", "elements")

        def totals():
            publish_kernel_metrics()
            return [REGISTRY.get(f"repro_densesim_{name}_total").total()
                    for name in names]

        before = totals()
        snapshot = DENSE.snapshot()
        rng = np.random.default_rng(5)
        evolve_with_noise(random_circuit(2, 6, rng),
                          MODELS["relax"](2, rng))
        delta = DENSE.delta(snapshot)
        after = totals()
        assert [a - b for a, b in zip(after, before)] == [
            delta[name] for name in names]
        assert totals() == after      # no new work: no double count


class TestBatched:
    @pytest.mark.parametrize("n", (1, 2, 5))
    def test_batched_equals_scalar_per_point(self, n):
        rng = np.random.default_rng(n)
        circ = random_circuit(n, 8 * n, rng)
        noise = MODELS["everything"](n, rng)
        batch = 5
        steps, per_point = [], [Circuit(n) for _ in range(batch)]
        for inst in circ.instructions:
            if inst.name in _ROTATIONS:
                angles = rng.uniform(0, 2 * math.pi, batch)
                steps.append((inst, angles))
                for b in range(batch):
                    per_point[b].append(inst.name, inst.qubits,
                                        [float(angles[b])])
            else:
                steps.append((inst, None))
                for b in range(batch):
                    per_point[b].append(inst.name, inst.qubits, inst.params)
        sim = evolve_steps_with_noise(steps, n, batch, noise)
        assert sim.tensor.shape == (batch, 2 ** n, 2 ** n)
        for b in range(batch):
            scalar = evolve_with_noise(per_point[b], noise).rho
            np.testing.assert_allclose(sim.tensor[b], scalar, rtol=0,
                                       atol=TOL)
            oracle = evolve_with_noise_unfused(per_point[b], noise).rho
            np.testing.assert_allclose(sim.tensor[b], oracle, rtol=0,
                                       atol=TOL)


class TestReadout:
    @pytest.mark.parametrize("n", (1, 3, 5))
    def test_matches_dense_trace(self, n):
        rng = np.random.default_rng(n)
        circ = random_circuit(n, 6 * n, rng)
        rho = evolve_with_noise(circ, MODELS["everything"](n, rng)).rho
        paulis = [random_pauli(n, rng) for _ in range(8)]
        values = PauliReadout(paulis, n)(rho[None])[0]
        for pauli, value in zip(paulis, values):
            dense = np.real(np.trace(rho @ pauli.to_matrix()))
            assert value == pytest.approx(dense, abs=TOL)

    def test_batched_and_scalar_readouts_agree(self):
        n = 3
        rng = np.random.default_rng(4)
        rhos = np.stack([evolve_with_noise(random_circuit(n, 15, rng),
                                           MODELS["depol"](n, rng)).rho
                         for _ in range(3)])
        paulis = [random_pauli(n, rng) for _ in range(5)]
        batched = BatchedDensityMatrixSimulator(n, 3, tensor=rhos)
        grid = batched.pauli_expectations(paulis)
        for b in range(3):
            sim = DensityMatrixSimulator(n, rho=rhos[b])
            for i, pauli in enumerate(paulis):
                assert sim.pauli_expectation(pauli) == grid[b, i]

    def test_signed_pauli(self):
        sim = DensityMatrixSimulator(1)
        assert sim.pauli_expectation(PauliString.from_label("-Z")) == -1.0


class TestMemoryGuard:
    """A register whose rho cannot fit is refused up front, in words."""

    @pytest.fixture
    def small_machine(self, monkeypatch):
        limit = 2 * 16 * 4 ** 4          # rho + working copy at 4 qubits
        monkeypatch.setattr(schedule_module, "physical_memory_bytes",
                            lambda: limit)
        return limit

    def test_simulator_refuses(self, small_machine):
        DensityMatrixSimulator(4)
        with pytest.raises(ValueError) as info:
            DensityMatrixSimulator(5)
        message = str(info.value)
        assert "5-qubit" in message
        assert str(2 * 16 * 4 ** 5) in message
        assert str(small_machine) in message

    def test_schedule_refuses(self, small_machine):
        noise = NoiseModel.uniform(5)
        with pytest.raises(ValueError, match="5-qubit"):
            evolve_with_noise(Circuit(5), noise)
        steps = [(inst, None) for inst in Circuit(4).h(0).instructions]
        with pytest.raises(ValueError, match="x 3 points"):
            evolve_steps_with_noise(steps, 4, 3, NoiseModel.uniform(4))

    def test_unknown_limit_never_refuses(self, monkeypatch):
        monkeypatch.setattr(schedule_module, "physical_memory_bytes",
                            lambda: None)
        DensityMatrixSimulator(2)
