"""Where the benchmark runs: the checkout's program, and the host it runs on."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable rationale_lab under src/."""


def import_program():
    """Import rationale_lab from this checkout's src/, never from elsewhere."""
    package = SRC / "rationale_lab"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no rationale_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rationale_lab

    if Path(rationale_lab.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"rationale_lab was imported from {rationale_lab.__file__}, "
                             f"not from {package}")
    return rationale_lab


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown"}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")
            if blas.get(key) is not None}


def host_record() -> dict:
    """The host as found; the thread variables are reported, never set."""
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def platform_key(host: dict) -> dict:
    """The parts of the host that can change floating-point results: summary
    hashes are comparable only between hosts with equal keys."""
    return {key: host[key] for key in ("cpu_model", "machine", "python", "numpy", "scipy",
                                       "blas")}
