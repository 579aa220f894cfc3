"""The runtime depends on the standard library alone."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run in an isolated interpreter (-I: no PYTHON* variables, no user site),
# with this checkout's src first on the path; prints every top-level module
# the imports loaded that is neither palfkit nor in the standard library
_PROBE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
before = set(sys.modules)
import palfkit, palfkit.cli
assert palfkit.__file__.startswith({str(SRC)!r}), palfkit.__file__
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {{"palfkit"}})))
"""


def test_runtime_imports_only_stdlib():
    probe = subprocess.run([sys.executable, "-I", "-c", _PROBE], capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == []
