"""The benchmark's own tests: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SPEC = run.SPEC
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_follow_the_grammar():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for metric in SPEC["end_to_end"]:
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25


def test_spec_lists_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_same_seed_same_inputs():
    for name in WORKLOADS:
        assert make_inputs(name, 7) == make_inputs(name, 7)
        assert make_inputs(name, 7).engine_config() \
            == make_inputs(name, 7).engine_config()
        assert make_inputs(name, 7) != make_inputs(name, 8)


def test_unknown_workload_is_refused():
    with pytest.raises(KeyError):
        make_inputs("nope", 1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_perturbed_by_1e_6_is_caught(workload):
    golden = checks.load_goldens()[workload]
    record = {"e0": golden["e0"], "methods": copy.deepcopy(golden["methods"])}
    assert checks.golden_failures(record, golden) == []
    method = next(iter(record["methods"]))
    for key in ("loss", "clifford_model"):
        bad = copy.deepcopy(record)
        bad["methods"][method][key] += 1e-6
        assert checks.golden_failures(bad, golden), key


def test_energy_below_e0_is_caught():
    golden = checks.load_goldens()["zne-6q"]
    record = {"e0": golden["e0"], "methods": copy.deepcopy(golden["methods"])}
    assert checks.property_failures(record, None) == []
    # the mitigated estimate may undercut E0, the raw energy may not
    record["methods"]["clapton"]["device_model"] = golden["e0"] - 1.0
    assert checks.property_failures(record, None) == []
    record["methods"]["clapton"]["device_model_raw"] = golden["e0"] - 1e-6
    assert checks.property_failures(record, None)


def test_hooks_restore_the_originals():
    import repro.execution.estimator as estimator
    import repro.experiments.experiment as experiment

    before = (experiment.run_vqe, experiment.Experiment.__dict__["run"],
              estimator.ExactEstimator.__dict__["estimate"])
    with layers.hooks(layers.Recorder()):
        assert experiment.run_vqe is not before[0]
    after = (experiment.run_vqe, experiment.Experiment.__dict__["run"],
             estimator.ExactEstimator.__dict__["estimate"])
    assert after == before


def test_search_24q_traced_run_reports_every_layer_and_no_dense_work(
        capsys):
    assert run.main(["--workload", "search-24q", "--seed", "3",
                     "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["densesim.evolve_calls"] == 0
    assert metrics["densesim.evolve_s"] == 0
    assert metrics["search.minimize_s"] > 0
    assert metrics["loss.calls"] > 0 and metrics["kernel.words"] > 0


def test_untraced_run_reports_every_end_to_end_metric_unhooked(
        capsys, monkeypatch):
    tables = []
    real_hooks = layers.hooks

    def spy(recorder, table):
        tables.append(table)
        return real_hooks(recorder, table)

    monkeypatch.setattr(layers, "hooks", spy)
    assert run.main(["--workload", "zne-6q", "--seed", "2",
                     "--seconds", "0", "--trace", "0"]) == 0
    assert tables and all(table == () for table in tables)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zne-6q",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
