"""Shared helpers for the figure-regeneration benchmarks.

Every benchmark prints the rows/series the corresponding paper figure
reports (run with ``-s`` to see them) and times the end-to-end experiment
through pytest-benchmark with a single round (the experiments are minutes-
scale; statistical repetition happens *inside* them via seeds).

Engine preset: ``CLAPTON_BENCH_PRESET`` env var (``smoke``/``fast``/``paper``,
default ``fast``).  EXPERIMENTS.md records results from the default preset.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

# test-support oracles (e.g. the unfused dense walk) live with the tests;
# appended so this directory's own modules win any name clash
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


def run_once(benchmark, fn):
    """Time ``fn`` exactly once through the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def bench_config():
    from repro.experiments import bench_engine

    return bench_engine()


def print_banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
