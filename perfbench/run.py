#!/usr/bin/env python3
"""End-to-end benchmark of the Clapton reproduction, one workload per call.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zne-6q --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Load is a closed loop: one client in this process runs tasks (one
``Experiment.run`` each, see ``workloads.py``) back to back until the next
one would end past ``--seconds``.  The first task is a warm-up (lazy
set-up, caches, the allocator's first growth): it is checked but not
timed, and at least one timed task always follows it.  The numpy/BLAS
pool is capped first (see ``machine.pin_runtime``); the allocator is left
as the program gets it.

``--trace 0`` reports the end-to-end metrics of plain tasks: no wrapper
sits in their path.  ``--trace 1`` alternates untraced and traced tasks
and reports per-layer metrics (medians over the traced tasks) plus the
tracing overhead; each printed figure names the tasks it rests on.  It
also writes the traced spans to ``perfbench/out/<workload>-seed<n>.trace.jsonl``,
which ``repro trace summary`` reads.

Every task's record is checked (see ``checks.py``); a failed check is
counted in ``failed`` and makes the exit code 1.  The last stdout line is
the JSON result.  ``--write-golden`` runs one task at the golden seed and
stores its record in ``goldens.json`` instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5

sys.path.insert(0, str(HERE))
# stdlib only: modules that import numpy are imported after pin_runtime()
from machine import fingerprint, pin_runtime  # noqa: E402

#: metric name -> unit, as declared in the benchmark's spec
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for key in ("end_to_end", "per_layer") for m in SPEC[key]}
#: per-layer figures derived from the circuit, not measured
COMPUTED = ("densesim.ops", "densesim.bytes_computed",
            "densesim.roofline_frac")


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class SetUp:
    """What a ``repro run`` builds before its first search round."""

    def __init__(self, workload):
        from repro.backends import ALL_BACKENDS
        from repro.experiments import Experiment
        from repro.hamiltonians.exact import ground_state_energy
        from repro.hamiltonians.registry import get_benchmark

        start = time.perf_counter()
        hamiltonian = get_benchmark(workload.benchmark).hamiltonian()
        built = time.perf_counter()
        e0 = (ground_state_energy(hamiltonian) if workload.dense_tier
              else float("nan"))  # no E0 at 24 qubits
        solved = time.perf_counter()
        self.experiment = Experiment(hamiltonian,
                                     backend=ALL_BACKENDS["toronto"](),
                                     name=workload.benchmark, e0=e0)
        done = time.perf_counter()
        self.steps = {"hamiltonians.build_s": built - start,
                      "hamiltonians.ground_energy_s": solved - built,
                      "problem.build_s": done - solved}


def setup_probe(name: str) -> int:
    """Child process: import and set up once, print the step times."""
    start = time.perf_counter()
    import repro  # noqa: F401
    from workloads import WORKLOADS

    imported = time.perf_counter()
    steps = SetUp(WORKLOADS[name]).steps
    print(json.dumps({"setup.import_s": imported - start, **steps}))
    return 0


def measure_setup(name: str) -> tuple[float, dict]:
    """Median wall time of ``SETUP_PROBES`` fresh set-ups, and step medians.

    Each probe is a new interpreter, so the import is paid every time, as
    it is by every ``repro run``.
    """
    walls, steps = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - start)
        steps.append(json.loads(done.stdout.strip().splitlines()[-1]))
    medians = {key: statistics.median(s[key] for s in steps)
               for key in steps[0]}
    return statistics.median(walls), medians


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
def run_task(setup: SetUp, inputs, span=None):
    """One task; returns ``(result, clifford_tiers)``."""
    workload = inputs.workload
    result = setup.experiment.run(
        methods=workload.methods, config=inputs.engine_config(),
        vqe_iterations=workload.vqe_iterations, seed=inputs.vqe_seed,
        mitigation=workload.mitigation, evaluate_tiers=workload.dense_tier)
    if workload.dense_tier:
        return result, None
    # the noiseless and Clifford-model tiers, called as
    # evaluate_initial_point calls them, without the dense tier
    from repro.core import evaluation

    tiers = {}
    with (span("tiers.evaluate") if span else nullcontext()):
        for name, init in result.results.items():
            circuit = init.initial_circuit()
            observable = init.initial_observable()
            noise = init.problem.noise_model
            tiers[name] = (
                evaluation.clifford_state_expectation(circuit, observable),
                evaluation.CliffordNoiseModel(noise)
                .noisy_zero_state_energy(circuit, observable))
    return result, tiers


class Bench:
    """Runs tasks of one workload and checks every record."""

    def __init__(self, setup: SetUp, inputs):
        from checks import GOLDEN_SEED, load_goldens

        self.setup = setup
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.reference = None   # the run's first record
        self.check_golden = inputs.seed == GOLDEN_SEED
        self.golden = load_goldens().get(inputs.workload.name)

    def _check(self, result, tiers) -> tuple[dict, bool]:
        from checks import golden_failures, property_failures, task_record

        record = task_record(result, tiers)
        if self.reference is None:
            self.reference = record
            failures = property_failures(record, result.results)
            if self.check_golden:
                failures += (golden_failures(record, self.golden)
                             if self.golden else ["no golden stored"])
        else:
            failures = ([] if record == self.reference else
                        ["record differs from the run's first task"])
        for failure in failures:
            print(f"check failed: {self.inputs.workload.name}: {failure}",
                  file=sys.stderr)
        return record, bool(failures)

    def task(self, recorder=None, stages: bool = False):
        """Run one task; returns ``(metrics, record)``.

        Plain by default: no wrapper is installed, and the metrics hold
        only ``task_s``.  ``stages`` adds the VQE-stage hook, and with it
        ``init_point_s`` and ``search_evals_per_s``; a ``recorder`` traces
        every layer into it.  Both are empty when the task raised.
        """
        from layers import LAYER_HOOKS, STAGE_HOOKS, Recorder, hooks
        from repro.obs import KERNEL

        traced = recorder is not None
        table = LAYER_HOOKS if traced else STAGE_HOOKS if stages else ()
        recorder = recorder or Recorder()
        self.attempted += 1
        kernel_before = KERNEL.snapshot()
        usage_before = resource.getrusage(resource.RUSAGE_SELF)
        try:
            with hooks(recorder, table):
                with recorder.span("bench.task",
                                   workload=self.inputs.workload.name,
                                   seed=self.inputs.seed,
                                   traced=traced) as tags:
                    result, tiers = run_task(
                        self.setup, self.inputs,
                        recorder.span if traced else None)
        except Exception:  # a task that raises is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return {}, None
        task_id = recorder.spans[-1][3]
        wall = recorder.spans[-1][2] - recorder.spans[-1][1]
        kernel = KERNEL.delta(kernel_before)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record, bad = self._check(result, tiers)
        self.failed += bad
        metrics = {"task_s": wall}
        if table:
            # span ids grow with start time: this task's spans follow its root
            vqe_s = sum(s[2] - s[1] for s in recorder.spans
                        if s[0] == "vqe.run" and s[3] > task_id)
            runs = result.runs.values()
            evaluations = sum(r.engine_evaluations for r in runs)
            search_s = sum(r.engine_seconds for r in runs)
            metrics.update(init_point_s=wall - vqe_s,
                           search_evals_per_s=evaluations / search_s)
        if traced:
            from layers import self_times

            # page faults and kernel time: the cost of memory the process
            # returns to the OS and maps again (freed density matrices)
            process = {
                "minor_faults": usage.ru_minflt - usage_before.ru_minflt,
                "sys_s": usage.ru_stime - usage_before.ru_stime}
            tags.update(self_s=self_times(recorder, task_id), kernel=kernel,
                        process=process, _record=record)
        return metrics, record


def closed_loop(seconds: float, step, warm_up) -> None:
    """Call ``warm_up`` once, then ``step`` until the next call would end
    past ``seconds`` from the start; ``step`` runs at least once."""
    start = time.perf_counter()
    warm_up()
    while True:
        began = time.perf_counter()
        step()
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            return


def median_metrics(rows: list[dict]) -> dict:
    rows = [r for r in rows if r]
    if not rows:
        return {}
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store one default-seed task as the golden")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources ({SRC}/repro) are missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    runtime = pin_runtime()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)

    from workloads import make_inputs

    try:
        inputs = make_inputs(args.workload, args.seed)
    except KeyError as exc:
        print(f"perfbench: {exc.args[0]}", file=sys.stderr)
        return 2
    workload = inputs.workload
    machine = fingerprint(runtime)
    print("fingerprint " + json.dumps(machine, sort_keys=True), flush=True)
    bench = Bench(SetUp(workload), inputs)

    if args.write_golden:
        from checks import GOLDEN_SEED, write_golden

        if args.seed != GOLDEN_SEED:
            print(f"perfbench: goldens are taken at seed {GOLDEN_SEED}",
                  file=sys.stderr)
            return 2
        bench.check_golden = False
        _, record = bench.task()
        if record is None or bench.failed:
            return 1
        write_golden(workload.name, record)
        print(f"golden for {workload.name} written")
        return 0

    setup_s, setup_steps = measure_setup(workload.name)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}"
    if args.trace:
        metrics, extra = traced_run(bench, args, machine, setup_steps,
                                    stem.with_suffix(".trace.jsonl"))
    else:
        rows = []
        closed_loop(args.seconds, lambda: rows.append(bench.task()[0]),
                    bench.task)
        metrics = {"setup_s": setup_s,
                   "task_s": median_metrics(rows).get("task_s", 0.0),
                   "peak_rss_mb": peak_rss_mb()}
        extra = {"task_walls": [r.get("task_s") for r in rows],
                 "basis": {"setup_s": f"median of {SETUP_PROBES} set-ups",
                           "task_s": f"median of {sum(map(bool, rows))} "
                                     "tasks after a warm-up",
                           "peak_rss_mb": "whole run"}}
    for key, value in metrics.items():
        print(f"{key:32s} {value:>16.6g} {UNITS[key]:6s} "
              f"{extra['basis'][key]}")
    failed_frac = bench.failed / max(1, bench.attempted)
    print(f"{'failed_frac':32s} {failed_frac:>16.6g} ratio "
          f"({bench.failed}/{bench.attempted} tasks)")
    result = {
        "correct": bench.failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }
    stem.with_suffix(f".trace{args.trace}.json").write_text(json.dumps(
        {**result, "fingerprint": machine, "workload": workload.name,
         "seed": args.seed, "seconds": args.seconds, "computed": COMPUTED,
         **extra}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run every workload in its own process; one combined result."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v
                                    in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def traced_run(bench: Bench, args, machine: dict, setup_steps: dict,
               trace_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced tasks; per-layer medians + trace."""
    from layers import Recorder, one_pass_seconds, task_layers

    recorder = Recorder()
    untraced, traced = [], []

    def traced_task():
        if bench.task(recorder)[1] is not None:
            traced.append(recorder.spans[-1][3])

    def pair():
        # alternate which side runs first, so neither is always the one
        # that follows the warm-up
        traced_first = len(untraced) % 2 == 1
        if traced_first:
            traced_task()
        untraced.append(bench.task(stages=True)[0])
        if not traced_first:
            traced_task()

    closed_loop(args.seconds, pair, bench.task)
    problem = bench.setup.experiment.problem
    pass_ref = (one_pass_seconds(problem.num_eval_qubits)
                if bench.inputs.workload.dense_tier else 0.0)
    spans = {s[3]: s for s in recorder.spans}
    rows = [task_layers(recorder, tid, spans[tid][5]["_record"],
                        spans[tid][5]["kernel"], pass_ref)
            | {f"process.{k}": v for k, v in spans[tid][5]["process"].items()}
            for tid in traced]
    layers = median_metrics(rows)
    task_traced = layers.pop("task_s", None)
    for key, value in setup_steps.items():
        layers[key] = value
    layers["densesim.l2_bytes"] = machine["l2_bytes"] or 0
    # stage figures of the untraced tasks
    plain = median_metrics(untraced)
    layers["experiment.init_point_s"] = plain.get("init_point_s", 0.0)
    layers["search.evals_per_s"] = plain.get("search_evals_per_s", 0.0)
    layers["trace.overhead_frac"] = (
        task_traced / plain["task_s"] - 1.0
        if task_traced and plain else 0.0)
    _print_design(layers, task_traced)
    on_traced = f"median of {len(rows)} traced tasks"
    basis = {key: on_traced for key in layers}
    basis.update({key: f"computed, {on_traced}" for key in COMPUTED})
    basis.update({key: f"median of {SETUP_PROBES} set-ups"
                  for key in setup_steps})
    basis["densesim.l2_bytes"] = "machine"
    untraced_n = sum(map(bool, untraced))
    basis["experiment.init_point_s"] = basis["search.evals_per_s"] = (
        f"median of {untraced_n} untraced tasks")
    basis["trace.overhead_frac"] = (f"{len(rows)} traced vs {untraced_n} "
                                    "untraced tasks")
    recorder.write_jsonl(trace_path, {
        "unix_time": time.time(), "workload": bench.inputs.workload.name,
        "seed": args.seed, "fingerprint": machine,
        "git_sha": machine["git_sha"]})
    return layers, {"tasks_traced": len(traced),
                    "tasks_untraced": len(untraced), "basis": basis,
                    "trace": str(trace_path.relative_to(HERE.parent))}


def _print_design(layers: dict, task_s: float | None) -> None:
    if not task_s:
        return
    shares = {
        "densesim.evolve": layers["densesim.evolve_s"],
        "search.minimize": layers["search.minimize_s"],
        "tiers.device": layers["tiers.device_s"],
        "experiment.self": layers["experiment.self_s"],
    }
    print("share of traced task_s: " + ", ".join(
        f"{k} {v / task_s:.1%}" for k, v in shares.items()))


if __name__ == "__main__":
    sys.exit(main())
