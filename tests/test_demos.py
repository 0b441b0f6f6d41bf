"""Each demo script imports, so a name dropped from the package breaks here.

The verification demo, the one that uses the gain API, also runs.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(_load(path).main)


def test_verification_demo_runs(capsys):
    (path,) = (p for p in DEMOS if p.stem == "verification")
    _load(path).main()
    out = capsys.readouterr().out
    assert "gain magnitudes: (495.0, 422.75, 134.75, 19.0)\n" in out
    assert out.endswith("overall: all checks passed\n")
