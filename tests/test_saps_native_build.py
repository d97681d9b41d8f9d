"""Building, caching and loading the native library.

Every test points ``XDG_CACHE_HOME`` at a temporary directory, so the
build cache it checks is its own, and faults are injected by patching
:data:`repro.inference.native.COMPILE_COMMAND`, never the machine.
"""

import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import SAPSConfig
from repro.exceptions import InferenceError
from repro.inference import native
from repro.inference.saps import saps_search_report

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: One small anneal in a fresh interpreter; prints the ranking.
ANNEAL = (
    "import numpy as np\n"
    "from repro.config import SAPSConfig\n"
    "from repro.inference.saps import saps_search_report\n"
    "m = np.random.default_rng(0).uniform(0.1, 0.9, (6, 6))\n"
    "report = saps_search_report(m, SAPSConfig(iterations=50), rng=1)\n"
    "print(list(report.ranking.order))\n"
)


@pytest.fixture
def cache_home(tmp_path, monkeypatch):
    """An empty ``XDG_CACHE_HOME``; the process's loaded kernel is
    forgotten before and after, so later tests load their own again."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    native._build_and_load.cache_clear()
    yield tmp_path
    native._build_and_load.cache_clear()


def run_python(code, cache_home, **kwargs):
    env = dict(os.environ)
    env["XDG_CACHE_HOME"] = str(cache_home)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kwargs)


def cached_files(cache_home):
    return sorted(os.listdir(cache_home / "repro"))


def small_anneal():
    matrix = np.random.default_rng(0).uniform(0.1, 0.9, (6, 6))
    return saps_search_report(matrix, SAPSConfig(iterations=50), rng=1)


def test_first_anneal_builds_once_then_everything_loads(cache_home,
                                                        monkeypatch):
    builds = []
    real_run = native.subprocess.run

    def counting_run(command, **kwargs):
        builds.append(command)
        return real_run(command, **kwargs)

    monkeypatch.setattr(native.subprocess, "run", counting_run)
    first = small_anneal()
    assert len(builds) == 1
    (library,) = cached_files(cache_home)
    assert library.endswith(".so")
    assert stat.S_IMODE(os.stat(cache_home / "repro").st_mode) == 0o700
    before = os.stat(cache_home / "repro" / library)

    assert small_anneal() == first
    native._build_and_load.cache_clear()  # as a new process would
    assert small_anneal() == first
    assert len(builds) == 1

    child = run_python(ANNEAL, cache_home)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    assert out.strip() == str(list(first.ranking.order))
    after = os.stat(cache_home / "repro" / library)
    assert cached_files(cache_home) == [library]
    assert (after.st_ino, after.st_mtime_ns) == \
        (before.st_ino, before.st_mtime_ns)


def test_concurrent_builds_both_succeed_and_leave_one_library(cache_home):
    children = [run_python(ANNEAL, cache_home) for _ in range(2)]
    outputs = [child.communicate(timeout=120) for child in children]
    for child, (out, err) in zip(children, outputs):
        assert child.returncode == 0, err
    assert outputs[0][0] == outputs[1][0]
    (library,) = cached_files(cache_home)
    assert library.endswith(".so") and not library.startswith(".")


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_shared_cache_dir_is_refused(cache_home, mode):
    directory = cache_home / "repro"
    directory.mkdir()
    directory.chmod(mode)
    with pytest.raises(InferenceError, match="writable by no one else"):
        small_anneal()
    assert cached_files(cache_home) == []


def test_failing_compiler_is_a_typed_error(cache_home, monkeypatch):
    monkeypatch.setattr(native, "COMPILE_COMMAND",
                        native.COMPILE_COMMAND + ("-no-such-flag-xyz",))
    with pytest.raises(InferenceError) as caught:
        small_anneal()
    message = str(caught.value)
    assert "-no-such-flag-xyz" in message  # the command ...
    assert "exit status" in message        # ... and the compiler's stderr
    assert "\n" not in message
    assert cached_files(cache_home) == []  # no half-built library left


def test_a_failed_build_is_remembered_for_the_process(cache_home,
                                                     monkeypatch):
    """The compiler runs once, not once per anneal: every later call
    raises the first failure again."""
    builds = []

    def failing_run(command, **kwargs):
        builds.append(command)
        return subprocess.CompletedProcess(command, 1, "", "cc: broken\n")

    monkeypatch.setattr(native.subprocess, "run", failing_run)
    messages = []
    for _ in range(2):
        with pytest.raises(InferenceError, match="cc: broken") as caught:
            small_anneal()
        messages.append(str(caught.value))
    assert len(builds) == 1
    assert messages[0] == messages[1]


def test_missing_compiler_is_a_typed_error(cache_home, monkeypatch):
    monkeypatch.setattr(native, "COMPILE_COMMAND",
                        ("no-such-compiler-xyz", "-shared"))
    with pytest.raises(InferenceError,
                       match="C compiler is required.*no-such-compiler-xyz"):
        small_anneal()
    assert cached_files(cache_home) == []


def test_serve_exits_2_when_the_kernel_cannot_build(tmp_path):
    code = (
        "import sys\n"
        "from repro.inference import native\n"
        "native.COMPILE_COMMAND += ('-no-such-flag-xyz',)\n"
        "from repro.cli import main\n"
        "sys.exit(main(['serve', '--port', '0', '--no-cache']))\n"
    )
    child = run_python(code, tmp_path)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: cannot build the native library")
    assert "-no-such-flag-xyz" in lines[0]
    assert "serving on" not in err


def test_every_source_is_declared_package_data():
    # An installed package carries only the files pyproject declares;
    # a source missing there breaks the first build after install.
    # Read without tomllib, which Python 3.10 lacks.
    text = (Path(SRC_DIR).parent / "pyproject.toml").read_text()
    section = text.split("[tool.setuptools.package-data]", 1)[1]
    declared = section.split("]", 1)[0]
    for source in native.SOURCES:
        assert f'"inference/{source.name}"' in declared, source.name
