"""The native library under AddressSanitizer and UndefinedBehaviorSanitizer.

Both C functions take input that arrives from the network: the vote row
scanner reads request bytes, and the anneal's arguments come from
request JSON through :func:`repro.inference.native.anneal_block`'s
checks.  This test builds the library with ``-fsanitize=address,undefined``
into a private ``XDG_CACHE_HOME`` (the cache key hashes the compile
command) and runs the scanner's tests and the anneal's native and
golden tests in a child interpreter with the ASan runtime preloaded,
since ASan must be loaded before anything else.  Any invalid read or
write, or any undefined behaviour, aborts the child.

Slow (about a minute), so outside tier-1: run it with ``pytest -m slow
tests/test_native_sanitizers.py``.  Skipped where the compiler has no
ASan runtime.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
REPO_ROOT = Path(SRC_DIR).parent

#: The library's compile command with both sanitizers, every finding
#: fatal.
SANITIZED_COMMAND = (
    "cc", "-O1", "-g", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all", "-fno-omit-frame-pointer",
    "-ffp-contract=off", "-fPIC", "-shared",
)

#: The tests the child runs against the sanitized build.
SELECTION = [
    "tests/test_vote_rows_codec.py",
    "tests/test_saps_kernel.py::TestNativeKernel",
    "tests/test_saps_kernel.py::TestGoldenReports",
]

CHILD = (
    "import sys\n"
    "import pytest\n"
    "from repro.inference import native\n"
    f"native.COMPILE_COMMAND = {SANITIZED_COMMAND!r}\n"
    "sys.exit(pytest.main(['-x', '-q', '-p', 'no:cacheprovider', "
    "'--capture=sys', "
    "*sys.argv[1:]]))\n"
)


def _asan_runtime():
    try:
        path = subprocess.run(
            ["cc", "-print-file-name=libasan.so"], capture_output=True,
            text=True, timeout=60, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return path if os.path.isabs(path) and os.path.exists(path) else None


def run_sanitized(selection, cache_home, timeout=900):
    """Run ``selection`` under the sanitized library; returns the
    completed child."""
    runtime = _asan_runtime()
    if runtime is None:
        pytest.skip("the C compiler has no AddressSanitizer runtime")
    env = dict(os.environ)
    env.update(
        XDG_CACHE_HOME=str(cache_home),
        PYTHONPATH=SRC_DIR + os.pathsep + env.get("PYTHONPATH", ""),
        LD_PRELOAD=runtime,
        # CPython's own allocations are not freed at exit by design.
        ASAN_OPTIONS="detect_leaks=0",
        UBSAN_OPTIONS="print_stacktrace=1",
    )
    return subprocess.run(
        [sys.executable, "-c", CHILD, *selection], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=timeout)


@pytest.mark.slow
def test_native_library_is_clean_under_sanitizers(tmp_path):
    child = run_sanitized(SELECTION, tmp_path)
    report = (child.stdout + child.stderr)[-4000:]
    assert child.returncode == 0, report
    assert "ERROR: AddressSanitizer" not in child.stderr, report
    assert "runtime error:" not in child.stderr, report
    (library,) = os.listdir(tmp_path / "repro")
    assert library.startswith("native-")
