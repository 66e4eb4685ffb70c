"""Tests for the experiment presets."""

import pytest

from repro.experiments import (
    FAST_ENGINE,
    PAPER_ENGINE,
    SMOKE_ENGINE,
    bench_engine,
)


class TestPresets:
    def test_paper_preset_matches_section_4_1(self):
        assert PAPER_ENGINE.num_instances == 10
        assert PAPER_ENGINE.generations_per_round == 100
        assert PAPER_ENGINE.top_k == 20
        assert PAPER_ENGINE.population_size == 100
        assert PAPER_ENGINE.retry_rounds == 2

    def test_bench_engine_env_switch(self, monkeypatch):
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "paper")
        assert bench_engine() is PAPER_ENGINE
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "smoke")
        assert bench_engine() is SMOKE_ENGINE
        monkeypatch.delenv("CLAPTON_BENCH_PRESET")
        assert bench_engine() is FAST_ENGINE
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "bogus")
        with pytest.raises(ValueError):
            bench_engine()
