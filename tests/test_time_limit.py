import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
import occufrac

HERE = Path(__file__).resolve().parent


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timers")
def test_short_time_limit_fails_a_sleeping_test_by_name(tmp_path):
    # this suite's conftest with the limit patched to a fifth of a second,
    # beside a test that sleeps far past it
    conftest = (HERE / "conftest.py").read_text()
    patched = conftest.replace("TIME_LIMIT_S = 60\n", "TIME_LIMIT_S = 0.2\n")
    assert patched != conftest
    (tmp_path / "conftest.py").write_text(patched)
    (tmp_path / "test_sleeps.py").write_text(
        "import time\n\n\ndef test_sleeps():\n    time.sleep(30)\n"
    )
    src = str(Path(occufrac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_sleeps.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=25,
    )
    assert proc.returncode == 1
    assert "test_sleeps.py::test_sleeps ran past the 0.2 s time limit" in proc.stdout
    assert "1 failed" in proc.stdout


@pytest.mark.skipif(
    conftest.resource is None or not hasattr(conftest.resource, "RLIMIT_AS"),
    reason="no address-space limit",
)
def test_memory_limit_fails_an_over_allocating_test_by_name(tmp_path):
    # this suite's conftest beside a test that asks for the whole limit at
    # once: the allocation is refused, so no memory is used, and the run
    # ends with its summary line
    (tmp_path / "conftest.py").write_text((HERE / "conftest.py").read_text())
    (tmp_path / "test_grabs.py").write_text(
        f"def test_grabs():\n    bytearray({conftest.MEMORY_LIMIT_BYTES})\n"
    )
    src = str(Path(occufrac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_grabs.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=25,
    )
    assert proc.returncode == 1
    assert "MemoryError" in proc.stdout
    assert "1 failed" in proc.stdout
