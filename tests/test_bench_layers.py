"""Every row of `bench/layers.py` builds its call against the library, so a
change that removes or renames a name a row reads (a private helper
included) fails here rather than in a paired timing run."""

import importlib.util
from pathlib import Path

import wholm

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_row_builds_a_callable(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    rows = layers.cases(wholm, tmp_path, layers.corpus_values(wholm))
    assert rows
    for row, make, units in rows:
        # the input is built; the timed call is not made
        assert callable(make(1)), row
        assert units >= 1, row
