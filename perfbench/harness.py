"""Shared plumbing: paths, hermetic work directories, the daemon process,
the HTTP load generators and the order statistics every workload reports.

Nothing here imports ``repro``: the client side of a serving workload
talks to the daemon over HTTP only, and the parts that need the library
import it themselves once ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: BLAS/OpenMP threads of every process the benchmark starts (and of
#: itself). OpenBLAS defaults to one thread per core; on a 2-core box
#: the second thread burns CPU for no wall-time gain and competes with
#: the daemon's HTTP threads, so it is pinned to one and recorded.
BLAS_THREADS = 1
THREAD_ENV = {
    name: str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

#: The serving model: fitted once per source tree (the benchmark's build
#: step) on the registry dataset under the repo's global seed.
SERVE_DATASET = "S-FZ"
SERVE_SCALE = 0.02
SERVE_AUTOML = "autosklearn"
SERVE_MAX_MODELS = 3
SERVE_FIT_SEED = 7


class BenchError(RuntimeError):
    """The program misbehaved in a way that ends the run."""


def require_checkout() -> None:
    """Fail fast outside a source checkout (no ``src/repro`` to measure)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")


def use_source_tree() -> None:
    """Import ``repro`` from the checkout, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(cache_dir: Path) -> dict[str, str]:
    """Environment of a started process: source tree, own cache, 1 thread."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


class Workdir:
    """A fresh directory under the build tree, removed on every exit path."""

    def __init__(self, tag: str) -> None:
        self.path = BUILD / f"run-{tag}-{os.getpid()}-{time.time_ns()}"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def dir_size(path: Path) -> tuple[int, float]:
    """(regular files, MB) under ``path``."""
    files, total = 0, 0
    for entry in path.rglob("*"):
        if entry.is_file():
            files += 1
            total += entry.stat().st_size
    return files, total / 1e6


# ------------------------------------------------------------------ build


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    digest.update(
        repr(
            (SERVE_DATASET, SERVE_SCALE, SERVE_AUTOML, SERVE_MAX_MODELS,
             SERVE_FIT_SEED)
        ).encode()
    )
    return digest.hexdigest()[:16]


def ensure_model() -> Path:
    """The fitted serving model for this source tree, fitting it if absent.

    Fitting is the benchmark's build step: it runs once per checkout in
    its own process with its own cache directory, and is not part of any
    measured phase.
    """
    model = BUILD / f"model-{_source_digest()}.pkl"
    if model.exists():
        return model
    with Workdir("fit") as work:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("fit_model.py")),
             str(model)],
            cwd=ROOT,
            env=child_env(work / "cache"),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=600,
        )
    if completed.returncode != 0 or not model.exists():
        raise BenchError(f"fitting the serving model failed:\n{completed.stdout}")
    return model


# ----------------------------------------------------------------- daemon


class Daemon:
    """``repro-em serve`` as a child process, stopped on every exit path.

    ``repro-em`` is the console script for ``python -m repro.cli``; the
    module form needs no installed entry point.
    """

    def __init__(self, model: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self._port_file = workdir / "port"
        self._log = (workdir / "daemon.log").open("wb")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--model", str(model), "--dataset", SERVE_DATASET,
             "--port-file", str(self._port_file)],
            cwd=ROOT,
            env=child_env(self.cache_dir),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.rss_mb: float | None = None
        self.port = 0
        try:
            self.port = self._wait_port()
        except BaseException:
            self.close()
            raise

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited early:\n{self.log_tail()}")
            try:
                text = self._port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise BenchError("daemon did not bind a port within 60 s")

    def log_tail(self) -> str:
        try:
            return (self.workdir / "daemon.log").read_text()[-2000:]
        except OSError:
            return ""

    def metrics(self) -> dict:
        status, payload = request(self.port, "GET", "/metrics")
        if status != 200:
            raise BenchError(f"GET /metrics -> {status}")
        return payload

    def close(self) -> None:
        """Ask for shutdown, then reap (killing after a grace period).

        Reaping with ``wait4`` yields the daemon's own peak RSS.
        """
        if self.proc.returncode is None:
            try:
                if not self.port:
                    raise OSError("no port bound")
                request(self.port, "POST", "/shutdown", timeout=5.0)
            except (OSError, http.client.HTTPException, ValueError):
                self.proc.terminate()
            deadline = time.perf_counter() + 10.0
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.rss_mb = usage.ru_maxrss / 1024.0
                    break
                if time.perf_counter() > deadline:
                    self.proc.kill()
                    deadline = float("inf")
                time.sleep(0.01)
        self._log.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------------------- http


def request(port: int, method: str, path: str,
            timeout: float = 60.0) -> tuple[int, dict]:
    """One HTTP exchange without a body; returns (status, decoded JSON)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class Outcome:
    """One /match request as the client saw it."""

    __slots__ = ("index", "status", "latency", "lateness", "payload", "error")

    def __init__(self, index: int) -> None:
        self.index = index
        self.status = 0
        self.latency = math.inf
        self.lateness = 0.0
        self.payload: dict | None = None
        self.error = ""

    @property
    def ok(self) -> bool:
        return self.status == 200


def _send(conn, body: bytes, outcome: Outcome, started: float) -> None:
    try:
        conn.request("POST", "/match", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        outcome.status = response.status
        if response.status == 200:
            outcome.payload = payload
        else:
            outcome.error = str(payload.get("error", payload))
    except (OSError, http.client.HTTPException, ValueError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
        conn.close()
    outcome.latency = time.perf_counter() - started


def drive(port: int, bodies: list[bytes], rate: float | None,
          connections: int = 2) -> tuple[list[Outcome], float]:
    """Send ``bodies`` over ``connections`` client threads.

    With ``rate`` set this is an open loop: request *i* is due at
    ``start + i / rate`` and its latency is timed from that due time, so
    a stall is charged to every request it delays; ``lateness`` is how
    late the generator sent it. With ``rate=None`` it is a closed loop:
    each connection sends its next request when the previous one is
    answered. The calling thread is one of the ``connections`` workers.
    Returns the outcomes in request order and the phase's wall time.
    """
    outcomes = [Outcome(i) for i in range(len(bodies))]
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()
    stop = threading.Event()  # once set, no worker takes another request
    start = time.perf_counter() + 0.005

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
        try:
            while not stop.is_set():
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                outcome = outcomes[index]
                if rate is None:
                    sent = time.perf_counter()
                    _send(conn, bodies[index], outcome, sent)
                    continue
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcome.lateness = max(0.0, time.perf_counter() - due)
                _send(conn, bodies[index], outcome, due)
        finally:
            conn.close()

    helpers = [threading.Thread(target=worker) for _ in range(connections - 1)]
    for thread in helpers:
        thread.start()
    try:
        worker()
    finally:
        stop.set()
        for thread in helpers:
            thread.join()
    return outcomes, time.perf_counter() - start


# ------------------------------------------------------------------ stats


def tail_rank(n: int) -> int:
    """Index of the highest order statistic with ten samples beyond it."""
    if n < 40:
        raise BenchError(f"{n} samples support no tail percentile (need 40)")
    return n - 11


def latency_summary(outcomes: list[Outcome], window: int | None = None) -> dict:
    """p50 and tail in ms; failed requests sort last (they miss any limit).

    The tail is the highest percentile with ten samples beyond it. With
    ``window`` it is taken in each run of ``window`` consecutive requests
    and the median over those windows is reported, so one stall of the
    shared machine moves one window's tail, not the run's.
    """
    latencies = [o.latency if o.ok else math.inf for o in outcomes]
    size = min(window or len(latencies), len(latencies))
    tails = [sorted(latencies[i:i + size])[tail_rank(size)]
             for i in range(0, len(latencies) - size + 1, size)]
    return {
        "samples": len(latencies),
        "p50_ms": 1000.0 * statistics.median(latencies),
        "tail_ms": 1000.0 * statistics.median(tails),
        "tail_percentile": round(100.0 * (size - 10) / size, 3),
        "tail_windows": len(tails),
    }


def lateness_summary(outcomes: list[Outcome]) -> dict:
    """How late the open-loop generator ran, and whether that grew.

    Growth compares the mean lateness of the last quarter of the
    requests with that of the first quarter.
    """
    late = [o.lateness for o in outcomes]
    quarter = max(1, len(late) // 4)
    return {
        "p50_ms": 1000.0 * statistics.median(late),
        "max_ms": 1000.0 * max(late),
        "growth_ms": 1000.0 * (
            statistics.fmean(late[-quarter:]) - statistics.fmean(late[:quarter])
        ),
    }


def f1_score(labels, predictions) -> float:
    """F1 of the match class (0 when nothing is predicted right)."""
    pairs = list(zip(labels, predictions))
    tp = sum(1 for y, p in pairs if y == 1 and p == 1)
    fp = sum(1 for y, p in pairs if y == 0 and p == 1)
    fn = sum(1 for y, p in pairs if y == 1 and p == 0)
    return 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)


def phase_record(name: str, attempted: int, failed: int, **extra) -> dict:
    """Print the operation accounting line of one phase."""
    record = {"phase": name, "attempted": attempted, "failed": failed, **extra}
    print(json.dumps(record), flush=True)
    return record


def phase(name: str, outcomes: list[Outcome], **extra) -> dict:
    """Accounting for a phase of requests (a non-200 answer is a failure)."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        extra["first_error"] = f"{failed[0].status} {failed[0].error}"[:200]
    return phase_record(name, len(outcomes), len(failed), **extra)
