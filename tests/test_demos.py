"""Smoke test: each demo runs to the end without raising.

``brockett_eigenvectors.py`` is left out: its dense solve does not finish
in reasonable time (ROADMAP open item 4).
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "geometry_tour.py",
    "sphere_acceleration.py",
    "euclidean_theory.py",
    "scaling_study.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
