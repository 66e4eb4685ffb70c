"""Correctness gate: canonical task records, goldens and seed-free properties.

A task's *record* holds everything it computed that does not depend on
the clock.  Every task of a run must produce the same record (same
inputs, and tracing must not change a number); at the default seed the
record must match ``goldens.json``; and at every seed the physical
properties in :func:`property_failures` hold.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDENS = Path(__file__).with_name("goldens.json")
GOLDEN_SEED = 1
TOLERANCE = 1e-9
#: fields compared with the goldens (tier energies, VQE endpoints, losses)
GOLDEN_FIELDS = ("loss", "noiseless", "clifford_model", "device_model",
                 "device_model_raw", "vqe_initial", "vqe_final")
#: most qubits at which the statevector cross-check of the noiseless tier runs
STATEVECTOR_QUBITS = 10


def task_record(result, clifford_tiers: dict | None = None) -> dict:
    """The clock-free content of one task's :class:`ExperimentResult`.

    ``clifford_tiers`` maps method -> ``(noiseless, clifford_model)`` for
    workloads that evaluate those tiers outside ``Experiment.run``.
    """
    methods = {}
    for name, run in result.runs.items():
        stats = run.cache_stats or {}
        entry = {
            "loss": float(run.loss),
            "genome": [int(g) for g in run.genome],
            "rounds": run.engine_rounds,
            "evaluations": run.engine_evaluations,
            "cache_hits": stats.get("hits", 0),
            "cache_misses": stats.get("misses", 0),
        }
        ev = run.evaluation
        if ev is not None:
            entry.update(noiseless=ev.noiseless,
                         clifford_model=ev.clifford_model,
                         device_model=ev.device_model)
            if ev.device_model_raw is not None:
                entry["device_model_raw"] = ev.device_model_raw
        elif clifford_tiers is not None:
            entry["noiseless"], entry["clifford_model"] = clifford_tiers[name]
        if run.vqe is not None:
            entry.update(vqe_initial=run.vqe.initial_energy,
                         vqe_final=run.vqe.final_energy,
                         vqe_history=[float(v) for v in run.vqe.history],
                         vqe_noisy=run.vqe.evaluations_by_tier["noisy"],
                         vqe_exact=run.vqe.evaluations_by_tier["exact"])
        methods[name] = entry
    e0 = float(result.e0)
    return {"e0": None if math.isnan(e0) else e0, "methods": methods}


def _close(a, b) -> bool:
    return abs(a - b) <= TOLERANCE


def golden_failures(record: dict, golden: dict) -> list[str]:
    """Differences between a default-seed record and its golden."""
    failures = []
    if (record["e0"] is None) != (golden["e0"] is None) or (
            golden["e0"] is not None
            and not _close(record["e0"], golden["e0"])):
        failures.append(f"e0 {record['e0']} != golden {golden['e0']}")
    if set(record["methods"]) != set(golden["methods"]):
        failures.append(f"methods {sorted(record['methods'])} != golden "
                        f"{sorted(golden['methods'])}")
        return failures
    for method, want in golden["methods"].items():
        got = record["methods"][method]
        for key in GOLDEN_FIELDS:
            if (key in got) != (key in want):
                failures.append(f"{method}.{key} present only on one side")
            elif key in want and not _close(got[key], want[key]):
                failures.append(f"{method}.{key} {got[key]!r} != golden "
                                f"{want[key]!r}")
    return failures


def golden_of(record: dict) -> dict:
    """The golden-compared subset of a record."""
    return {"e0": record["e0"],
            "methods": {m: {k: v[k] for k in GOLDEN_FIELDS if k in v}
                        for m, v in record["methods"].items()}}


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def write_golden(workload: str, record: dict) -> None:
    goldens = load_goldens()
    goldens[workload] = {"seed": GOLDEN_SEED, **golden_of(record)}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def property_failures(record: dict, results: dict | None) -> list[str]:
    """Seed-free properties of one record.

    * every variational energy -- the noiseless tier, the raw noisy tiers
      and, without mitigation, the VQE endpoints -- is >= E0 - 1e-9 (a
      mitigated estimate is an extrapolation, not a state's energy, so
      it may undercut E0);
    * at <= ``STATEVECTOR_QUBITS`` qubits the noiseless Clifford tier equals
      ``densesim.noiseless_energy`` on the same circuit (``results`` holds
      the live :class:`InitializationResult` objects).
    """
    from repro.densesim.evaluator import noiseless_energy

    failures = []
    e0 = record["e0"]
    for method, entry in record["methods"].items():
        if e0 is not None:
            mitigated = "device_model_raw" in entry
            keys = ["noiseless", "clifford_model",
                    "device_model_raw" if mitigated else "device_model"]
            if not mitigated:
                keys += ["vqe_initial", "vqe_final"]
            for key in keys:
                if key in entry and entry[key] < e0 - TOLERANCE:
                    failures.append(f"{method}.{key} {entry[key]!r} < E0 "
                                    f"{e0!r}")
        if results is None or "noiseless" not in entry:
            continue
        result = results[method]
        circuit = result.initial_circuit()
        if circuit.num_qubits <= STATEVECTOR_QUBITS:
            dense = noiseless_energy(circuit, result.initial_observable())
            if not _close(dense, entry["noiseless"]):
                failures.append(f"{method}.noiseless {entry['noiseless']!r}"
                                f" != statevector {dense!r}")
    return failures
