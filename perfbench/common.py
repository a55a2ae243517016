"""Paths, process environment and the environment block shared by the
benchmark scripts.

The package is always imported from ``src/`` of the checkout that holds this
directory, never from an installed copy, so a run measures the code beside it.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: at hidden size 128 a second thread made training slower
# on the 2-core reference box, and it leaves a core for the rest of the
# system, which steadies the timings.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV_PREFIX = "CKQG_"


class MissingPackage(RuntimeError):
    """The checkout has no ``src/ckqg`` to measure."""


def prepare_process() -> None:
    """Pin BLAS threads and drop CKQG_* overrides. Call before numpy loads."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for key in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        del os.environ[key]


def import_ckqg():
    """Import the package from this checkout's ``src/`` or raise."""
    if not (SRC / "ckqg" / "__init__.py").is_file():
        raise MissingPackage(f"no package source under {SRC.name}/ckqg")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ckqg
    if Path(ckqg.__file__).resolve().parent != (SRC / "ckqg").resolve():
        raise MissingPackage(f"ckqg imported from {ckqg.__file__}, not {SRC}")
    return ckqg


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may run in an exported tree that has no repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy reports, if it can be found."""
    import ctypes
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(configs: dict) -> dict:
    """The environment block every result carries."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "nproc": os.cpu_count(),
        "ckqg_env_vars": sorted(k for k in os.environ if k.startswith(ENV_PREFIX)),
        "configs": configs,
    }
