"""The package's lazy exports, each checked in a fresh interpreter.

A test process has already imported every module, so what an import loads
can only be seen in a new one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SERIES = {"ergm_cluster.expansion", "ergm_cluster.subsets", "ergm_cluster.coefficients"}


def _fresh(code):
    """What code prints as JSON, run in a new interpreter that imports from src."""
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("stmt", ["import ergm_cluster.cli",
                                  "from ergm_cluster import ensemble_result, load_motif"])
def test_exact_route_leaves_the_series_modules_unloaded(stmt):
    loaded = set(_fresh(stmt + "\nprint(json.dumps(sorted(sys.modules)))"))
    assert not loaded & SERIES
    assert "numpy" in loaded


def test_every_export_resolves_and_is_listed():
    out = _fresh("import ergm_cluster as e\n"
                 "listed = dir(e)\n"
                 "kinds = {name: type(getattr(e, name)).__name__ for name in e.__all__}\n"
                 "print(json.dumps([e.__all__, listed, kinds, e.__version__]))")
    names, listed, kinds, version = out
    assert len(names) == 48 and names == sorted(set(names))
    assert set(names) <= set(listed) and listed == sorted(listed)
    assert set(kinds) == set(names) and "module" not in kinds.values()
    assert version == "0.1.0"


def test_star_import_binds_every_export():
    bound = _fresh("from ergm_cluster import *\n"
                   "import ergm_cluster\n"
                   "print(json.dumps([ergm_cluster.__all__, sorted(globals())]))")
    assert set(bound[0]) <= set(bound[1])


def test_unknown_attribute_raises_attribute_error():
    message, has = _fresh("import ergm_cluster\n"
                          "try:\n"
                          "    ergm_cluster.no_such_name\n"
                          "except AttributeError as exc:\n"
                          "    message = str(exc)\n"
                          "print(json.dumps([message, hasattr(ergm_cluster, 'no_such_name')]))")
    assert message == "module 'ergm_cluster' has no attribute 'no_such_name'"
    assert has is False


def test_from_import_still_returns_a_submodule():
    same = _fresh("from ergm_cluster import expansion\n"
                  "print(json.dumps(expansion is sys.modules['ergm_cluster.expansion']))")
    assert same is True
