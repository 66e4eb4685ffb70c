"""Spans around calls into each layer's public functions, and what they add up to.

Nothing under ``src/`` is edited: :func:`hooks` swaps wrappers in for the
functions a task calls (at the module attribute or class attribute the
caller looks them up through) and puts the originals back on exit.  Spans
are kept in memory as tuples and written once, at the end of the run, in
the ``trace.jsonl`` format ``repro trace summary`` reads.

Two hook sets exist.  ``STAGE_HOOKS`` times only the VQE stage boundary
(two clock reads per method), which the untraced half of a traced run
uses to split the time-to-initial-point off the task; ``LAYER_HOOKS`` is
the full traced set.  A plain task (``--trace 0``) installs neither.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: (span name, module, attribute looked up by the caller)
STAGE_HOOKS = (
    ("vqe.run", "repro.experiments.experiment", "run_vqe"),
)
LAYER_HOOKS = STAGE_HOOKS + (
    ("experiment.run", "repro.experiments.experiment", "Experiment.run"),
    ("search.method_run", "repro.methods.base", "InitializationMethod.run"),
    ("loss.evaluate_many", "repro.core.loss", "ClaptonLoss.evaluate_many"),
    ("loss.evaluate_many", "repro.core.loss", "CafqaLoss.evaluate_many"),
    ("tiers.evaluate", "repro.experiments.experiment",
     "evaluate_initial_point"),
    ("tiers.noiseless", "repro.core.evaluation",
     "clifford_state_expectation"),
    ("tiers.clifford", "repro.noise.clifford_model",
     "CliffordNoiseModel.noisy_zero_state_energy"),
    ("densesim.noisy_energy", "repro.core.evaluation", "noisy_energy"),
    ("densesim.evolve", "repro.densesim.evaluator", "evolve_with_noise"),
    ("densesim.evolve", "repro.execution.estimator", "evolve_with_noise"),
    ("densesim.batched", "repro.densesim.batched",
     "evolve_steps_with_noise"),
    ("estimator.estimate", "repro.execution.estimator",
     "ExactEstimator.estimate"),
    ("estimator.estimate_many", "repro.execution.estimator",
     "ExactEstimator.estimate_many"),
    ("mitigation.estimate_many", "repro.mitigation.strategies",
     "_ZNEEstimator.estimate_many"),
    ("mitigation.estimate_many", "repro.mitigation.strategies",
     "_ReadoutEstimator.estimate_many"),
    ("vqe.spsa", "repro.vqe.runner", "minimize_spsa"),
)


def _points(args) -> int:
    return len(np.atleast_2d(np.asarray(args[1])))


#: span name -> function of the call's positional args giving its tags.
#: ``_dense`` tags keep the evolved structure so the op count can be
#: computed after the task, outside every timed span.
_TAGGERS = {
    "loss.evaluate_many": lambda args: {"points": len(args[1])},
    "estimator.estimate_many": lambda args: {"points": _points(args)},
    "mitigation.estimate_many": lambda args: {"points": _points(args)},
    "densesim.evolve": lambda args: {
        "_dense": (list(args[0].instructions), args[1], 1)},
    "densesim.batched": lambda args: {
        "points": args[2],
        "_dense": ([inst for inst, _ in args[0]], args[3], args[2])},
}


class Recorder:
    """In-memory span store shared by the wrappers and the harness."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []   # (name, start, end, id, parent, tags)
        self._stack: list[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **tags):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield tags
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, start, end, span_id, parent, tags))

    def wrap(self, name: str, fn):
        tagger = _TAGGERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(tagger(args) if tagger else {})):
                return fn(*args, **kwargs)
        return wrapper

    def write_jsonl(self, path, meta: dict) -> None:
        """Write every span as a ``trace.jsonl``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "meta", "version": 1,
                                 "clock": "perf_counter", **meta}) + "\n")
            for name, start, end, span_id, parent, tags in self.spans:
                record = {"kind": "span", "name": name,
                          "start": round(start - self.t0, 9),
                          "dur": round(end - start, 9), "id": span_id,
                          "parent": parent, "thread": "MainThread"}
                public = {k: v for k, v in tags.items()
                          if not k.startswith("_")}
                if public:
                    record["tags"] = public
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def hooks(recorder: Recorder, table=LAYER_HOOKS):
    """Route the calls in ``table`` through ``recorder`` while inside."""
    saved = []
    try:
        for name, module, attribute in table:
            owner, leaf = _resolve(module, attribute)
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, recorder.wrap(name, getattr(owner, leaf)))
        yield recorder
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


# ----------------------------------------------------------------------
# Dense-simulator op accounting (computed, not measured)
# ----------------------------------------------------------------------
def dense_ops(instructions, noise_model) -> int:
    """Whole-rho operations ``evolve_with_noise`` applies for a circuit.

    Mirrors its walk: one op per gate, one per channel from
    ``NoiseModel.channels_after``, and one per idle-relaxation step of the
    ASAP schedule (including the final alignment).
    """
    num_qubits = noise_model.num_qubits
    idle = (noise_model.include_idle_relaxation
            and noise_model.include_relaxation
            and noise_model.t1 is not None)
    clocks = np.zeros(num_qubits)
    ops = 0
    for inst in instructions:
        if idle:
            start = max(clocks[q] for q in inst.qubits)
            for q in inst.qubits:
                if noise_model.relaxation_spec(q, start - clocks[q]) is not None:
                    ops += 1
            duration = noise_model.gate_duration(inst)
            for q in inst.qubits:
                clocks[q] = start + duration
        ops += 1 + len(noise_model.channels_after(inst))
    if idle:
        end = float(clocks.max())
        ops += sum(1 for q in range(num_qubits)
                   if noise_model.relaxation_spec(q, end - clocks[q])
                   is not None)
    return ops


def one_pass_seconds(num_qubits: int, repeats: int = 15) -> float:
    """Median time of one in-place scaling pass over a complex128 rho.

    A reference for what a single read-and-write sweep of the state costs
    on this machine; at 6-8 qubits rho is cache-resident, so this is not a
    DRAM bandwidth figure.
    """
    dim = 1 << num_qubits
    rho = np.full((dim, dim), 1.0 / dim, dtype=complex)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.multiply(rho, 1.0, out=rho)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Per-task layer metrics
# ----------------------------------------------------------------------
def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _members(recorder: Recorder, task_id: int) -> dict:
    """Spans of the task rooted at ``task_id``, by id (parents first)."""
    inside = {}
    for span in sorted(recorder.spans, key=lambda s: s[3]):
        if span[3] == task_id or span[4] in inside:
            inside[span[3]] = span
    return inside


def _covered(members: dict) -> dict:
    """Seconds of each span that its direct children cover."""
    covered: dict[int, float] = {}
    for sid, (name, start, end, _, par, tags) in members.items():
        if par in members:
            covered[par] = covered.get(par, 0.0) + (end - start)
    return covered


def task_layers(recorder: Recorder, task_id: int, record: dict,
                kernel_delta: dict, pass_ref_s: float) -> dict:
    """Per-layer metrics of one traced task rooted at span ``task_id``.

    ``record`` is the task's canonical record (see ``checks.task_record``);
    counts that the program reports itself (rounds, evaluations, cache
    statistics, VQE tiers) are read from it rather than re-derived.
    """
    spans = _members(recorder, task_id)
    members = list(spans.values())
    covered = _covered(spans)

    def dur(s):
        return s[2] - s[1]

    def self_time(s):
        return max(0.0, dur(s) - covered.get(s[3], 0.0))

    def named(*names):
        return [s for s in members if s[0] in names]

    def total(*names):
        return sum(dur(s) for s in named(*names))

    def has_ancestor(s, prefix):
        par = s[4]
        while par in spans:
            if spans[par][0].startswith(prefix):
                return True
            par = spans[par][4]
        return False

    task_s = dur(spans[task_id])
    search_s = total("search.method_run")
    loss = named("loss.evaluate_many")
    loss_s = total("loss.evaluate_many")
    loss_points = sum(s[5]["points"] for s in loss)
    tiers_s = total("tiers.evaluate")
    noiseless_s = total("tiers.noiseless")
    clifford_s = total("tiers.clifford")
    device_s = tiers_s - noiseless_s - clifford_s
    vqe_runs = named("vqe.run")
    vqe_s = total("vqe.run")
    spsa_s = total("vqe.spsa")

    scalar = named("densesim.evolve")
    batched = named("densesim.batched")
    evolve_s = total("densesim.evolve", "densesim.batched")
    batched_points = sum(s[5]["points"] for s in batched)
    ops = sum(dense_ops(*s[5]["_dense"][:2]) * s[5]["_dense"][2]
              for s in scalar + batched)
    rho_bytes = max((16 * 4 ** s[5]["_dense"][1].num_qubits
                     for s in scalar + batched), default=0)
    energies = len(scalar) + batched_points

    estimates = named("estimator.estimate")
    estimate_ms = [1e3 * dur(s) for s in estimates]
    mitigation = named("mitigation.estimate_many")
    outer_mitigation = [s for s in mitigation
                        if not has_ancestor(s, "mitigation.")]
    vqe_ids = {s[3] for s in vqe_runs}
    vqe_endpoint_s = sum(dur(s) for s in members
                         if s[4] in vqe_ids and s[0] != "vqe.spsa")
    methods = record["methods"].values()
    hits = sum(m["cache_hits"] for m in methods)
    misses = sum(m["cache_misses"] for m in methods)
    lut = kernel_delta["lut_hits"] + kernel_delta["lut_misses"]
    iterations = sum(len(m.get("vqe_history") or ()) for m in methods)
    return {
        "search.minimize_s": search_s,
        "search.evaluations": sum(m["evaluations"] for m in methods),
        "search.rounds": sum(m["rounds"] for m in methods),
        "search.cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "search.self_s": sum(self_time(s) for s in named("search.method_run")),
        "loss.evaluate_many_s": loss_s,
        "loss.calls": len(loss),
        "loss.points_per_call": loss_points / len(loss) if loss else 0.0,
        "kernel.words": kernel_delta["words"],
        "kernel.rows": kernel_delta["rows"],
        "kernel.fused_passes": kernel_delta["fused_passes"],
        "kernel.lut_hit_ratio": kernel_delta["lut_hits"] / lut if lut
        else 0.0,
        "kernel.words_per_s": kernel_delta["words"] / loss_s if loss_s
        else 0.0,
        "tiers.noiseless_s": noiseless_s,
        "tiers.clifford_s": clifford_s,
        "tiers.device_s": device_s,
        "tiers.device_calls": len(named("densesim.noisy_energy")),
        "densesim.evolve_s": evolve_s,
        "densesim.evolve_calls": len(scalar) + len(batched),
        "densesim.ops": ops,
        "densesim.bytes_computed": 2 * rho_bytes * ops,
        "densesim.rho_bytes": rho_bytes,
        "densesim.pass_ref_s": pass_ref_s if ops else 0.0,
        "densesim.roofline_frac": ops * pass_ref_s / evolve_s if ops
        else 0.0,
        "densesim.batched_s": total("densesim.batched"),
        "densesim.batched_points": batched_points,
        "densesim.energies_per_s": energies / (device_s + vqe_s)
        if energies else 0.0,
        "estimator.estimate_calls": len(estimates),
        "estimator.estimate_p50_ms": _percentile(estimate_ms, 50),
        "estimator.estimate_p90_ms": _percentile(estimate_ms, 90),
        "estimator.batch_points": sum(
            s[5]["points"] for s in named("estimator.estimate_many")),
        "estimator.self_s": sum(self_time(s) for s in named(
            "estimator.estimate", "estimator.estimate_many")),
        "mitigation.estimate_many_s": sum(dur(s) for s in outer_mitigation),
        "mitigation.scale_evals": sum(
            s[5]["points"] for s in named("estimator.estimate_many")
            if has_ancestor(s, "mitigation.")),
        "mitigation.self_s": sum(self_time(s) for s in mitigation),
        "vqe.spsa_s": spsa_s,
        "vqe.iterations": iterations,
        "vqe.iter_s": vqe_s / iterations if iterations else 0.0,
        "vqe.evaluations_noisy": sum(m.get("vqe_noisy", 0) for m in methods),
        "vqe.evaluations_exact": sum(m.get("vqe_exact", 0) for m in methods),
        "vqe.endpoint_s": vqe_endpoint_s,
        "vqe.self_s": sum(self_time(s) for s in vqe_runs
                          + named("vqe.spsa")),
        "experiment.self_s": task_s - search_s - tiers_s - vqe_s,
        "task_s": task_s,
    }


def self_times(recorder: Recorder, task_id: int) -> dict:
    """Self seconds per span name inside one task (for the trace tags)."""
    spans = _members(recorder, task_id)
    covered = _covered(spans)
    out: dict[str, float] = {}
    for sid, (name, start, end, *_) in spans.items():
        out[name] = out.get(name, 0.0) + max(
            0.0, end - start - covered.get(sid, 0.0))
    return {k: round(v, 9) for k, v in sorted(out.items())}
