"""Shared plumbing: paths, the pinned subprocess environment, statistics
and provenance.

Every benchmark run starts from the root of a source checkout. The
program under test is the ``repro`` package in ``src/``; the benchmark
imports it from there and runs its CLI as ``python -m repro`` with
``PYTHONPATH=src``, exactly as a user of a source checkout would.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Generated inputs, keyed by what they depend on (gitignored).
CACHE_DIR = ROOT / ".perfbench_cache"
#: Per-run outputs: response logs, trace files, tables (gitignored).
OUT_DIR = ROOT / ".perfbench_out"

#: BLAS/OpenMP threads per process. One thread keeps the load generator,
#: the server and its BLAS calls from oversubscribing a small host, and
#: removes thread-scheduling noise from the numbers.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


_PR_SET_PDEATHSIG = 1

#: the line the tracing launcher prints once it has marked the trace cut
CUT_MARKER = "perfbench: trace cut"


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (no result is printed)."""


def pin_threads() -> None:
    """Pin BLAS threads in this process (call before numpy is imported)."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no repro source tree at {SRC}: run from the root of a checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for ``repro`` subprocesses: source on the path, BLAS
    pinned, telemetry logging off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in _THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env.pop("REPRO_OBS_LOG", None)
    env.pop("REPRO_TRAIN_WORKERS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def child_setup() -> None:
    """``preexec_fn`` of every child: default SIGINT handling (a shell
    that started the benchmark in the background leaves SIGINT ignored,
    and Python would then never raise KeyboardInterrupt to stop
    ``repro serve`` cleanly), and SIGTERM when the benchmark dies."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def repro_cmd(args: list[str], trace_out: Path | None = None) -> list[str]:
    """Command line for one ``repro`` CLI call; traced through the
    launcher when ``trace_out`` is given."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [
        sys.executable,
        str(BENCH_DIR / "launch.py"),
        "--trace-out",
        str(trace_out),
        "--",
        *args,
    ]


#: a command still running after this long is killed (a run must end
#: within 180 s)
CLI_TIMEOUT_S = 170.0


def run_cli(args: list[str], trace_out: Path | None = None):
    """Run one ``repro`` command to completion.

    Returns ``(wall_s, peak_rss_mb, stdout)``; the peak RSS is the
    child's own high-water mark from ``wait4``.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = repro_cmd(args, trace_out)
    with open(OUT_DIR / "cli.stdout", "w+") as out, open(
        OUT_DIR / "cli.stderr", "w+"
    ) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=out,
            stderr=err,
            preexec_fn=child_setup,
        )
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 reaps the child and returns its own rusage, so the
            # RSS high-water mark is this command's alone
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        raise BenchError(
            f"`repro {' '.join(args)}` exited {proc.returncode}: "
            f"{stderr.strip()[-800:]}"
        )
    return wall, usage.ru_maxrss / 1024.0, stdout


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(list(values))


def source_digest() -> str:
    """blake2b over every file under ``src/`` (path + bytes): identifies
    the code measured even where the checkout is not a git repository."""
    digest = hashlib.blake2b(digest_size=10)
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int, sizes: dict) -> dict:
    """What was measured, where: recorded with every result."""
    import numpy
    import scipy

    blas = {}
    try:
        blas_cfg = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {"name": blas_cfg.get("name"), "version": blas_cfg.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    rev = dirty = None
    # only a repository rooted at the checkout identifies this code
    if _git("rev-parse", "--show-toplevel") == str(ROOT.resolve()):
        rev = _git("rev-parse", "HEAD")
        dirty = bool(_git("status", "--porcelain", "--", "src"))
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "src_digest": source_digest(),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "input_sizes": sizes,
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
