"""Fused superoperator schedules: the dense device model's hot path.

Applying every gate and every noise channel as its own pass over rho costs
one numpy dispatch (and often a full copy) per operation -- about 144 per
energy on the 6-qubit ansatz, 42 gates plus 102 depolarizing/relaxation
channels.  A schedule compiles a bound instruction sequence plus a
:class:`~repro.noise.model.NoiseModel` into a short list of fused blocks,
in the spirit of the gate-fusion pass of density-matrix simulators such as
Qiskit Aer's:

* each instruction together with its ``channels_after`` becomes one 4x4
  (one qubit) or 16x16 (two qubits) superoperator;
* one-qubit work on a qubit -- gates, their channels, idle relaxation --
  is held back and folded into the next two-qubit block on that qubit;
  whatever is left at the end is folded into the last block that touched
  the qubit (nothing touches it afterwards, so the move commutes), or
  becomes a block of its own on a qubit no two-qubit gate touches;
* the ASAP idle-relaxation schedule of
  ``NoiseModel.include_idle_relaxation`` is walked here and nowhere else.

Superoperator index convention: for block qubits ``(q0, q1)`` the index
bits are ``(r_q0, c_q0, r_q1, c_q1)``, most significant first, where
``r``/``c`` are the row (ket) and column (bra) bits of rho.  The state is
a ``(B,) + (2,) * 2n`` tensor (``B = 1`` for a single circuit): axis 0 is
the batch, logical axis ``q`` the row of qubit ``q`` and ``n + q`` its
column.  A block is applied by moving its axes to the front (one copy) and
doing one matmul; the axis order this leaves behind is tracked at compile
time and undone once at the end.  Blocks may be shared ``(d, d)`` or
per-point ``(B, d, d)`` -- per-point rotation angles of a batch fold into
their blocks, so one compiled walk serves the scalar and batched evolvers.

The per-op methods of :class:`~repro.densesim.density_matrix.
DensityMatrixSimulator` remain the oracle these schedules are tested
against to 1e-12.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..obs.kernel import DENSE

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from ..circuits.circuit import Instruction
    from ..noise.model import ChannelSpec, NoiseModel

_I4 = np.eye(4, dtype=complex)
_VEC_I = np.array([1, 0, 0, 1], dtype=complex)  # vec(I_2) in (r, c) order
_VEC_I2 = np.kron(_VEC_I, _VEC_I)


# ----------------------------------------------------------------------
# Memory guard
# ----------------------------------------------------------------------
def physical_memory_bytes() -> int | None:
    """Physical memory of this machine, or ``None`` when unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def check_dense_fits(num_qubits: int, batch_size: int = 1) -> None:
    """Refuse a register whose rho cannot be held in physical memory.

    The fused path keeps rho plus one working copy of it (the ping-pong
    buffer of :meth:`Schedule.run`), so the need is twice the rho bytes.
    Raising here beats being OOM-killed mid-run (14 qubits is 4 GiB of
    rho alone).
    """
    need = 2 * batch_size * 16 * 4 ** num_qubits
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        points = f" x {batch_size} points" if batch_size > 1 else ""
        raise ValueError(
            f"a {num_qubits}-qubit density matrix{points} needs {need} bytes "
            f"(rho plus the fused schedule's working copy), more than the "
            f"{limit} bytes of physical memory")


# ----------------------------------------------------------------------
# Superoperators (index order (r_q0, c_q0, r_q1, c_q1))
# ----------------------------------------------------------------------
def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two one-qubit superoperators as one two-qubit block (batch-aware)."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (16, 16))


def unitary_superop(matrix: np.ndarray) -> np.ndarray:
    """``rho -> U rho U†`` for a ``(..., 2^k, 2^k)`` unitary, k in {1, 2}."""
    lead = matrix.shape[:-2]
    conj = matrix.conj()
    if matrix.shape[-1] == 2:
        out = matrix[..., :, None, :, None] * conj[..., None, :, None, :]
        return out.reshape(lead + (4, 4))
    u = matrix.reshape(lead + (2, 2, 2, 2))   # (ra, rb, ra', rb')
    v = conj.reshape(lead + (2, 2, 2, 2))     # (ca, cb, ca', cb')
    out = np.einsum("...abcd,...efgh->...aebfcgdh", u, v)
    return out.reshape(lead + (16, 16))


def relaxation_superop(gamma: float, eta: float) -> np.ndarray:
    """Thermal relaxation: ``|1><1| -> |0><0|`` at ``gamma``, coherences x ``eta``."""
    return np.array([[1.0, 0.0, 0.0, gamma],
                     [0.0, eta, 0.0, 0.0],
                     [0.0, 0.0, eta, 0.0],
                     [0.0, 0.0, 0.0, 1.0 - gamma]], dtype=complex)


def depolarizing_superop(p: float, num_qubits: int) -> np.ndarray:
    """``rho -> (1 - r) rho + r tr_q(rho) (x) I/2^k``, ``r = p 4^k/(4^k - 1)``."""
    dim = 4 ** num_qubits
    strength = p * dim / (dim - 1)
    vec = _VEC_I if num_qubits == 1 else _VEC_I2
    return ((1.0 - strength) * np.eye(dim, dtype=complex)
            + (strength / 2 ** num_qubits) * np.outer(vec, vec))


def channel_superop(spec: "ChannelSpec") -> np.ndarray:
    """Superoperator of one structured channel, on ``spec.qubits`` order.

    Depolarizing and relaxation use the same closed forms as the oracle's
    ``apply_depolarizing`` / ``apply_relaxation``; the remaining kinds sum
    their Kraus operators.
    """
    if spec.kind == "depol":
        return depolarizing_superop(spec.params[0], len(spec.qubits))
    if spec.kind == "relax":
        return relaxation_superop(*spec.params)
    return sum(unitary_superop(op) for op in spec.kraus_operators())


def _embed(op: np.ndarray, on: tuple[int, ...],
           block: tuple[int, ...]) -> np.ndarray:
    """Lift a superoperator on qubits ``on`` to the block's qubit order."""
    if on == block:
        return op
    if len(on) == 1:
        return _kron(op, _I4) if on[0] == block[0] else _kron(_I4, op)
    if on == block[::-1]:
        return _swap_qubits(op)
    raise ValueError(f"channel on qubits {on} does not fit block {block}")


def _swap_qubits(op: np.ndarray) -> np.ndarray:
    """Reorder a two-qubit block's superoperator from (a, b) to (b, a)."""
    lead = op.shape[:-2]
    t = op.reshape(lead + (4, 4, 4, 4))
    k = len(lead)
    axes = tuple(range(k)) + (k + 1, k, k + 3, k + 2)
    return np.ascontiguousarray(t.transpose(axes)).reshape(lead + (16, 16))


def _rotation_terms(pauli: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``U = cI - isP`` gives ``U (x) U* = c^2 I + cs G + s^2 F``: (G, F)."""
    eye = np.eye(2, dtype=complex)
    return (1j * (np.kron(eye, pauli.conj()) - np.kron(pauli, eye)),
            np.kron(pauli, pauli.conj()))


_ROTATION_TERMS = {
    "rx": _rotation_terms(np.array([[0, 1], [1, 0]], dtype=complex)),
    "ry": _rotation_terms(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "rz": _rotation_terms(np.array([[1, 0], [0, -1]], dtype=complex)),
}


def rotation_superop(name: str, angle) -> np.ndarray:
    """``rx``/``ry``/``rz`` superoperator at one angle or per point.

    ``angle`` is a float (returns ``(4, 4)``) or a ``(B,)`` array of
    per-point angles (returns ``(B, 4, 4)``).
    """
    if name not in _ROTATION_TERMS:
        raise ValueError(f"unknown rotation gate {name!r}")
    generator, flip = _ROTATION_TERMS[name]
    if isinstance(angle, np.ndarray):
        half = angle.astype(float)[:, None, None] / 2.0
        c, s = np.cos(half), np.sin(half)
    else:
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return (c * c) * _I4 + (c * s) * generator + (s * s) * flip


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------
class ScheduleCompiler:
    """Compiles instruction sequences against one noise model.

    Holds the model's parameter-independent superoperators -- each
    instruction's composed ``channels_after`` and, for parameter-free
    gates, the gate fused with them -- so an estimator that keeps one
    compiler builds them once rather than once per energy.  Noise channels
    depend only on a gate's name and qubits, never on its angles, which is
    what makes both caches exact.  It also keeps the axis plan of each
    block layout it has seen (one per circuit structure, bounded).
    """

    #: axis plans kept before the plan cache starts over
    _MAX_PLANS = 256

    def __init__(self, noise_model: "NoiseModel"):
        self.noise_model = noise_model
        self.num_qubits = noise_model.num_qubits
        self._channels: dict[tuple, np.ndarray] = {}
        self._fixed: dict[tuple, np.ndarray] = {}
        self._plans: dict[tuple, tuple] = {}   # block layout -> axis plan

    def _channels_after(self, inst: "Instruction") -> np.ndarray:
        key = (inst.name, inst.qubits)
        op = self._channels.get(key)
        if op is None:
            op = np.eye(4 ** len(inst.qubits), dtype=complex)
            for spec in self.noise_model.channels_after(inst):
                op = _embed(channel_superop(spec), spec.qubits,
                            inst.qubits) @ op
            self._channels[key] = op
        return op

    def _step(self, inst: "Instruction",
              angles: np.ndarray | None) -> np.ndarray:
        """Gate plus its channels: ``(d, d)``, or ``(B, d, d)`` per point."""
        if angles is not None:
            return self._channels_after(inst) @ rotation_superop(inst.name,
                                                                 angles)
        if inst.params:
            return self._channels_after(inst) @ rotation_superop(
                inst.name, float(inst.params[0]))
        key = (inst.name, inst.qubits)
        op = self._fixed.get(key)
        if op is None:
            op = self._channels_after(inst) @ unitary_superop(inst.matrix())
            self._fixed[key] = op
        return op

    def compile(self, steps: Sequence[tuple["Instruction", np.ndarray | None]],
                batch_size: int = 1) -> "Schedule":
        """Fuse ``(instruction, angles)`` steps into a :class:`Schedule`.

        ``angles`` is a ``(B,)`` vector of per-point rotation angles for
        parameter-dependent rotations and ``None`` for instructions shared
        by every point (all of them, for a single bound circuit).
        """
        model = self.noise_model
        n = self.num_qubits
        idle = (model.include_idle_relaxation and model.include_relaxation
                and model.t1 is not None)
        clocks = [0.0] * n
        pending: dict[int, np.ndarray] = {}   # held-back one-qubit work
        blocks: list[list] = []               # [qubits, superoperator]
        last: dict[int, int] = {}             # qubit -> its last block

        def hold(qubit: int, op: np.ndarray) -> None:
            held = pending.get(qubit)
            pending[qubit] = op if held is None else op @ held

        def relax_idle(qubit: int, gap: float) -> None:
            spec = model.relaxation_spec(qubit, gap)
            if spec is not None:
                hold(qubit, relaxation_superop(*spec.params))

        for inst, angles in steps:
            qubits = inst.qubits
            if idle:
                # ASAP schedule: relax each operand over the gap it sat idle
                start = max(clocks[q] for q in qubits)
                for q in qubits:
                    relax_idle(q, start - clocks[q])
                duration = model.gate_duration(inst)
                for q in qubits:
                    clocks[q] = start + duration
            op = self._step(inst, angles)
            if len(qubits) == 1:
                hold(qubits[0], op)
                continue
            if len(qubits) != 2:
                raise ValueError(f"fused schedules take 1- and 2-qubit "
                                 f"gates, got {inst.name} on {qubits}")
            a, b = qubits
            held_a, held_b = pending.pop(a, None), pending.pop(b, None)
            if held_a is not None or held_b is not None:
                op = op @ _kron(_I4 if held_a is None else held_a,
                                _I4 if held_b is None else held_b)
            last[a] = last[b] = len(blocks)
            blocks.append([qubits, op])
        if idle:
            # align every qubit to the circuit's end time (pre-measurement)
            end = max(clocks)
            for q in range(n):
                relax_idle(q, end - clocks[q])
        for q, op in pending.items():
            if q in last:
                block = blocks[last[q]]
                block[1] = _embed(op, (q,), block[0]) @ block[1]
            else:
                blocks.append([(q,), op])
        layout = tuple(qubits for qubits, _ in blocks)
        plan = self._plans.get(layout)
        if plan is None:
            if len(self._plans) >= self._MAX_PLANS:
                self._plans.clear()
            plan = self._plans[layout] = _axis_plan(n, layout)
        DENSE.schedules += 1
        return Schedule(n, batch_size, blocks, plan)


def compiler_for(noise_model: "NoiseModel",
                 compiler: ScheduleCompiler | None = None) -> ScheduleCompiler:
    """``compiler`` if it was built on ``noise_model``, else a fresh one."""
    if compiler is None:
        return ScheduleCompiler(noise_model)
    if compiler.noise_model is not noise_model:
        raise ValueError("schedule compiler was built for another noise model")
    return compiler


def _axis_plan(num_qubits: int, layout: tuple[tuple[int, ...], ...]
               ) -> tuple[list, tuple[int, ...] | None]:
    """The axis moves that bring each block's axes to the front.

    Returns one ``(perm, swap)`` pair per block -- ``perm`` the transpose
    of the state tensor before the block (``None`` when its axes already
    lead), ``swap`` whether its two qubits lead in reversed order, which
    is cheaper to absorb into the 16x16 superoperator than into rho -- and
    the transpose that restores the canonical order at the end.
    """
    n = num_qubits
    order = list(range(2 * n))     # logical axis at each tensor position
    moves = []
    for qubits in layout:
        front = [axis for q in qubits for axis in (q, n + q)]
        current = order[:len(front)]
        if current == front:
            moves.append((None, False))
        elif len(qubits) == 2 and current == front[2:] + front[:2]:
            moves.append((None, True))
        else:
            new = front + [a for a in order if a not in front]
            moves.append(((0,) + tuple(1 + order.index(a) for a in new),
                          False))
            order = new
    undo = None
    if order != list(range(2 * n)):
        undo = (0,) + tuple(1 + order.index(a) for a in range(2 * n))
    return moves, undo


class Schedule:
    """A compiled block list plus the axis moves that apply it."""

    def __init__(self, num_qubits: int, batch_size: int, blocks: list[list],
                 plan: tuple[list, tuple[int, ...] | None]):
        self.num_qubits = num_qubits
        self.batch_size = batch_size
        self.num_blocks = len(blocks)
        moves, self._undo = plan
        self._steps = [(perm, _swap_qubits(op) if swap else op,
                        4 ** len(qubits))
                       for (qubits, op), (perm, swap) in zip(blocks, moves)]

    def run(self) -> np.ndarray:
        """Evolve ``|0...0><0...0|`` through every block: ``(B, 2^n, 2^n)``."""
        n, batch = self.num_qubits, self.batch_size
        check_dense_fits(n, batch)
        dim = 2 ** n
        shape = (batch,) + (2,) * (2 * n)
        state = np.zeros((batch, dim * dim), dtype=complex)
        state[:, 0] = 1.0
        spare = np.empty_like(state)
        for perm, op, d in self._steps:
            if perm is not None:
                np.copyto(spare.reshape(shape),
                          state.reshape(shape).transpose(perm))
                state, spare = spare, state
            np.matmul(op, state.reshape(batch, d, -1),
                      out=spare.reshape(batch, d, -1))
            state, spare = spare, state
        if self._undo is not None:
            np.copyto(spare.reshape(shape),
                      state.reshape(shape).transpose(self._undo))
            state = spare
        DENSE.blocks += self.num_blocks
        DENSE.elements += self.num_blocks * batch * dim * dim
        return state.reshape(batch, dim, dim)
