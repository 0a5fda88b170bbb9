"""Smoke tests of the scripts under scripts/, run in-process."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_open_problem_scan_reports_dicyclic_3(capsys):
    _load("open_problem_scan").main(24)
    out = capsys.readouterr().out
    assert "HIT dicyclic(n=3) order=12: kappa=6 > |S|=4" in out
    assert out.splitlines()[-1].startswith("summary:")


def test_spectra_tables_all_match(capsys):
    _load("spectra_tables").main()
    out = capsys.readouterr().out
    assert "match=yes" in out
    assert "match=NO" not in out
    assert out.endswith("done.\n")
