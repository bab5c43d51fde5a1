"""The module entry point: `python -m sepkit.cli` exits with run_cli's code."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def sepkit(*args, cwd):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sepkit.cli", *map(str, args)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_exits_with_the_verdict_code(tmp_path):
    """A certified state exits 0 and an entangled one 1, through main()."""
    gen = sepkit("gen", "werner", "--p", "0.2", "--out", "w.txt", cwd=tmp_path)
    assert gen.returncode == 0, gen.stderr
    done = sepkit("classify", "w.txt", "--json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == "SeparableCertified"

    gen = sepkit("gen", "bell", cwd=tmp_path)
    assert gen.returncode == 0, gen.stderr
    (tmp_path / "bell.txt").write_text(gen.stdout)
    done = sepkit("classify", "bell.txt", cwd=tmp_path)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[0] == "verdict: EntangledByPairCriterion"
