"""The command line run as its own process, as a shell runs it: one case
per exit code (0 success, 1 usage error, 2 dataset error).  Every other
command-line case runs in process through ``cli.main`` in test_cli.py."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dsplan.model import save_dataset
from conftest import make_tower

SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "gen-synthetic": (["gen-synthetic", "--layers", "2", "--screws", "1",
                       "--seed", "1", "--dataset-out", "{tmp}/new.json"],
                      0, None),
    "validate": (["validate", "--dataset", "{tmp}/tower.json"], 0, None),
    # a 12006 x 12006 x 2 base plate; the box is checked before any cell
    "workspace-over-the-cell-limit": (
        ["gen-synthetic", "--layers", "3000", "--screws", "4", "--seed", "1",
         "--dataset-out", "{tmp}/huge.json"], 1, "usage error: "),
    "malformed-dataset": (["validate", "--dataset", "{tmp}/malformed.json"],
                          2, "dataset error: "),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exit_code_without_traceback(tmp_path, case):
    argv, code, prefix = CASES[case]
    save_dataset(make_tower(2, 1, seed=7), tmp_path / "tower.json")
    (tmp_path / "malformed.json").write_text('{"version": 1}')
    inputs = sorted(tmp_path.iterdir())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "dsplan.cli",
         *[a.format(tmp=tmp_path) for a in argv]],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if prefix is None:
        assert done.stdout
    else:
        assert prefix in done.stderr
        assert sorted(tmp_path.iterdir()) == inputs
