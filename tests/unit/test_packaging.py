"""Process-level packaging checks: the installable metadata in
``setup.py`` and what ``import repro.cli`` pulls in at start-up."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_setup_py_names_the_package():
    assert _python("setup.py", "--name").strip().splitlines()[-1] == "repro"


def test_cli_import_skips_scipy_stats():
    """``scipy.stats`` costs about a second at start-up; only the
    replication summary needs it, so it is imported there."""
    out = _python(
        "-c", "import sys, repro.cli; print('scipy.stats' in sys.modules)"
    )
    assert out.strip() == "False"
