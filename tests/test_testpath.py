"""tools/testpath.py links pytest and Hypothesis, and only what they need, so
that an interpreter without site-packages imports both from the links alone."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_links_are_enough_to_import_pytest_and_hypothesis(tmp_path):
    target = tmp_path / "links"
    subprocess.run([sys.executable, str(ROOT / "tools" / "testpath.py"), str(target)],
                   capture_output=True, check=True, timeout=60)
    names = {path.name for path in target.iterdir()}
    assert {"pytest", "_pytest", "hypothesis", "pluggy", "pygments"} <= names
    assert all((target / name).is_symlink() for name in names)
    assert not [name for name in names if "benchmark" in name]
    # -S: no site-packages, so every import below comes from the links
    env = {**os.environ, "PYTHONPATH": str(target)}
    probe = "import hypothesis, pygments, pytest; print(pytest.__file__)"
    done = subprocess.run([sys.executable, "-S", "-B", "-c", probe], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.startswith(str(target))
