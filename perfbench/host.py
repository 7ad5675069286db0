"""Host-side helpers: the speed probe, the machine fingerprint, peak RSS.

The probe is a fixed calibration kernel (a pure-Python loop plus a numpy
sort, roughly the mix of the program's hot paths) timed beside every pass.
On a shared machine host speed drifts: back-to-back single passes of the
same code can differ by 7-24%, and CPU time drifts with wall time, so the
drift is the host's, not the scheduler's.  The probe's time is reported
only as the per-layer diagnostic ``host.probe_s``, so a slow host shows up
there instead of being read as a regression of the program.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_PROBE_SIZE = 1_000_000


def host_probe() -> float:
    """Seconds one run of the fixed calibration kernel takes."""
    values = np.random.default_rng(12345).random(_PROBE_SIZE)
    start = time.perf_counter()
    total = 0
    for i in range(_PROBE_SIZE):
        total += i * i
    np.sort(values)
    elapsed = time.perf_counter() - start
    n = _PROBE_SIZE
    if total != (n - 1) * n * (2 * n - 1) // 6:
        raise RuntimeError("host probe computed a wrong sum")
    return elapsed


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (identifies the code without git)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit(root: Path) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git repository.

    Git runs only when *root* itself holds a repository, and is told not to
    look above *root*.
    """
    if not (root / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: Path) -> dict:
    """Machine and code fingerprint reported next to every number."""
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "commit": commit(root),
        "source_sha256": source_digest(root),
    }
