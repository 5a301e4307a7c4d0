"""Machine and environment facts recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def worker_count() -> int:
    """Processes the parallel workload uses: the CPUs this process may run on."""
    return max(2, len(os.sched_getaffinity(0)))


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_call(name: str):
    """A function of the OpenBLAS library numpy loaded, or None if there is none."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}", f"openblas_{name}"):
            function = getattr(lib, symbol, None)
            if function is not None:
                return function
    return None


def set_blas_threads(count: int) -> bool:
    """Limit numpy's OpenBLAS to ``count`` threads. False when it cannot be done."""
    function = _openblas_call("set_num_threads")
    if function is None:
        return False
    function.argtypes = [ctypes.c_int]
    function.restype = None
    function(count)
    return True


def _openblas() -> dict:
    """OpenBLAS build string and the thread count it runs with, via numpy's copy."""
    import numpy as np

    info = {"version": None, "threads": None, "config": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    get_threads = _openblas_call("get_num_threads")
    if get_threads is not None:
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        info["threads"] = int(get_threads())
    get_config = _openblas_call("get_config")
    if get_config is not None:
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        info["config"] = get_config().decode(errors="replace")
    return info


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, so a result names its code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def facts(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }
