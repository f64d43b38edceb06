"""Smoke tests: every example script runs end-to-end.

Examples are the public face of the library; these tests execute each
one in a subprocess with small arguments and assert a clean exit plus
the expected headline in the output.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str, timeout: int = 240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py", "18", "1")
        assert proc.returncode == 0, proc.stderr
        assert "paper bounds respected" in proc.stdout
        assert "D dominator" in proc.stdout  # the map legend

    def test_sensor_backbone_broadcast(self):
        proc = run_example("sensor_backbone_broadcast.py", "60", "1")
        assert proc.returncode == 0, proc.stderr
        assert "saves" in proc.stdout
        assert "blind flooding" in proc.stdout

    def test_density_sweep(self):
        proc = run_example("density_sweep.py", "20", "2")
        assert proc.returncode == 0, proc.stderr
        assert "mean CDS size" in proc.stdout

    @pytest.mark.slow
    def test_theory_verification(self):
        proc = run_example("theory_verification.py", timeout=1200)
        assert proc.returncode == 0, proc.stderr
        assert "every paper claim verified" in proc.stdout
