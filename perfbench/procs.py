"""Process and scratch-directory helpers shared by the workloads.

All scratch state (artifact caches, pass results) lives under
``.perfbench-work/`` at the root of the checkout and is removed when
the run ends.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench-work"


def program_present() -> bool:
    return (SOURCE / "repro" / "__init__.py").is_file()


def clean_env(cache_dir: Path) -> Dict[str, str]:
    """The environment of a program process: defaults, a fresh cache.

    Every ``REPRO_*`` variable is dropped so defaults are measured; only
    the artifact-cache location is set, to a fresh empty directory.
    Temporary files go there too, so nothing is written outside the
    checkout.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SOURCE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@contextlib.contextmanager
def workdir() -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no concurrent run still uses it


def fresh_dir(parent: Path, stem: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=parent))


def compile_sources() -> None:
    """Byte-compile the program once, so no pass times compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SOURCE / "repro")],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )


def stop(process: subprocess.Popen, grace_s: float = 10.0) -> Optional[int]:
    """Wait for ``process`` to end, killing it after ``grace_s``."""
    try:
        return process.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        process.kill()
        return process.wait(timeout=30)


def run_python(args: List[str], env: Dict[str, str], timeout_s: float) -> int:
    """Run ``python3 args...`` to completion; nonzero when it fails or hangs."""
    process = subprocess.Popen(
        [sys.executable, *args], env=env, cwd=str(ROOT), stdout=subprocess.DEVNULL
    )
    try:
        return process.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=30)
        return -9
