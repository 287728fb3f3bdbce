"""The bytes of every kind of CLI artifact, pinned in tests/data/artifacts.

Each case is one command line, run with --out NAME.json and with --out
NAME.csv --format csv; both files must equal their goldens byte for byte, so
a change to the output layer that moves one byte of any artifact fails here.
"""

import shlex
from pathlib import Path

import pytest

from ergm_cluster import cli

ARTIFACTS = Path(__file__).resolve().parent / "data" / "artifacts"
GRAPH = '{"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [1, 3]]}'

# The README's command-line block, then shapes it does not reach: a
# single-edge family (null budget and tail bounds), a failing certificate,
# p = 1 coefficients, a divergent tail and a given weight base.
CASES = {
    "density-graph": "density --motif two-star --graph graph.json",
    "density-sites": 'density --motif two-star --n 4 --sites "[[0, 1], [1, 2]]"',
    "represent": "represent --motif two-star --graph graph.json",
    "exact": "exact --motifs edge triangle --betas 0.05 0.02 --n 4",
    "expand": "expand --motifs two-star --betas 0.001 --n 4 --order 4",
    "region": "region --p 2 --m 3",
    "coeffs": "coeffs --p 2 --norm 0.001 --n-max 12",
    "expand-edge": "expand --motifs edge --betas 0.1 --n 4 --order 3",
    "expand-fail": "expand --motifs two-star triangle --betas 0.3 -0.2 --n 4 --order 2",
    "coeffs-p1": "coeffs --p 1 --M 2 --norm 0.1 --n-max 6",
    "coeffs-divergent": "coeffs --p 2 --norm 0.2 --n-max 5",
    "region-M": "region --p 3 --m 4 --M 1.5",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", CASES)
def test_artifact_bytes(name, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.json").write_text(GRAPH)
    out = f"{name}.{fmt}"
    assert cli.main([*shlex.split(CASES[name]), "--out", out, "--format", fmt]) == 0
    assert (tmp_path / out).read_bytes() == (ARTIFACTS / out).read_bytes()
