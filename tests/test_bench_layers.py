"""Every row of `bench/layers.py` builds its call against the library, so a
change that removes or renames a name a row reads (a private helper
included) fails here rather than in a paired timing run."""

import importlib.util
import types
from pathlib import Path

import pytest

import wholm

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_row_builds_a_callable(layers, tmp_path):
    rows = layers.cases(wholm, tmp_path, layers.corpus_values(wholm))
    assert rows
    for row, make, units in rows:
        # the input is built; the timed call is not made
        assert callable(make(1)), row
        assert units >= 1, row


def test_time_pair_counts_the_page_faults_of_each_call(layers, monkeypatch):
    monkeypatch.setattr(layers, "REPEATS", 4)
    calls = []
    row = layers.time_pair([lambda seed, side=side: (
        lambda: calls.append((side, seed))) for side in "sa"], 1)
    # one warm-up call per side, then both sides on every seed, the src
    # side first on odd seeds
    assert calls == [("s", 0), ("a", 0), ("s", 1), ("a", 1), ("a", 2),
                     ("s", 2), ("s", 3), ("a", 3), ("a", 4), ("s", 4)]
    for side in ("src", "against"):
        assert row[side]["samples"] == 4
        faults = row[side]["minor_faults"]
        assert isinstance(faults, (int, float)) and faults >= 0
    assert row["pairs"] == 4


def test_time_pair_collects_garbage_before_each_timed_call(layers,
                                                           monkeypatch):
    # a collection that lands inside one side's clock skews the pair
    monkeypatch.setattr(layers, "REPEATS", 2)
    calls = []
    monkeypatch.setattr(layers, "gc", types.SimpleNamespace(
        collect=lambda: calls.append("collect")))
    layers.time_pair([lambda seed, side=side: (
        lambda: calls.append((side, seed))) for side in "sa"], 1)
    assert calls == [("s", 0), ("a", 0), "collect", ("s", 1), "collect",
                     ("a", 1), "collect", ("a", 2), "collect", ("s", 2)]
