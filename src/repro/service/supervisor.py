"""Pre-forked multi-worker front for the evaluation service.

``repro serve --workers N`` runs one supervisor process and N worker
processes. Each worker hosts the existing threading handler stack
unchanged; the processes cooperate through two shared pieces of disk
state:

* the fingerprint cache's disk tier (``DiskCache``, atomic
  write-tmp-fsync-rename entries plus a sqlite index), so a design warmed
  by any worker is a warm hit in every other — including a freshly
  restarted replacement after a crash;
* a run directory with per-worker status snapshots (aggregated by
  ``/healthz``) and mirrored campaign snapshots (so ``GET /campaign/<id>``
  answers on any worker).

Socket strategy: where ``SO_REUSEPORT`` exists (Linux, BSD) the supervisor
binds the address without listening — reserving the port across worker
restarts — and every worker binds + listens its own reuse-port socket, so
the kernel load-balances accepts and a worker's death never strands a
listen queue. Elsewhere the supervisor binds one listening socket and the
workers inherit it across ``fork`` and accept from it cooperatively.

Lifecycle: SIGTERM/SIGINT to the supervisor propagates SIGTERM to every
worker, which drains gracefully — stop accepting (listener closed, so new
connects are refused in reuse-port mode), answer 503 ``draining`` on
already-accepted requests, finish in-flight work within a deadline, then
exit 0. A worker that dies any other way (crash, kill -9) is restarted,
with a short backoff when deaths come rapid-fire.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.utils.errors import MCCMError

logger = logging.getLogger(__name__)

#: Seconds a draining worker waits for in-flight requests after closing
#: its listener before exiting anyway.
DRAIN_DEADLINE_SECONDS = 10.0

#: Extra seconds the supervisor grants beyond the workers' drain deadline
#: before escalating to SIGKILL.
STOP_GRACE_SECONDS = 5.0

#: A worker dying sooner than this after spawn counts as a rapid death and
#: earns the restart loop a growing pause (caps at 1s) instead of a
#: fork-storm.
RAPID_DEATH_SECONDS = 1.0


def _reuse_port_works(host: str) -> bool:
    """Whether SO_REUSEPORT can actually be set on this platform."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        finally:
            probe.close()
    except OSError:
        return False
    return True


def _bound_socket(
    host: str, port: int, *, reuse_port: bool, listen: Optional[int]
) -> socket.socket:
    """One bound (and optionally listening) TCP socket for the service."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen is not None:
            sock.listen(listen)
    except BaseException:
        sock.close()
        raise
    return sock


def run_worker(
    worker_index: int,
    host: str,
    port: int,
    *,
    inherited: Optional[socket.socket],
    jobs: Union[int, str],
    cache_dir: Optional[str],
    max_inflight: int,
    shared_dir: Union[str, Path],
    drain_seconds: float = DRAIN_DEADLINE_SECONDS,
) -> int:
    """One worker process: serve until SIGTERM, then drain and return 0.

    ``inherited`` is the supervisor's listening socket in inherited-FD mode;
    ``None`` means reuse-port mode, where the worker binds its own listener.
    """
    # Imported here, not at module top: the supervisor forks before these
    # matter and the worker is the only side that serves requests.
    from repro.service.handlers import ServiceState
    from repro.service.server import POLL_SECONDS, _RequestHandler, _ThreadingServer

    state = ServiceState(
        jobs=jobs,
        cache_dir=cache_dir,
        max_inflight=max_inflight,
        shared_dir=shared_dir,
        worker_index=worker_index,
    )
    if inherited is not None:
        sock = inherited
    else:
        sock = _bound_socket(
            host, port, reuse_port=True, listen=_ThreadingServer.request_queue_size
        )

    httpd = _ThreadingServer((host, port), _RequestHandler, bind_and_activate=False)
    # Swap the server's unbound default socket for the shared/bound one.
    httpd.socket.close()
    httpd.socket = sock
    httpd.server_address = sock.getsockname()[:2]
    httpd.server_name = httpd.server_address[0]
    httpd.server_port = httpd.server_address[1]
    httpd.service_state = state  # type: ignore[attr-defined]
    # server_close() must release the listener immediately; in-flight
    # handler threads are waited out below, bounded by the drain deadline.
    httpd.block_on_close = False

    def _begin_drain(signum: int, _frame) -> None:
        state.begin_draining()
        # shutdown() blocks until serve_forever returns, so it must run off
        # the serving thread the signal interrupted.
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _begin_drain)
    signal.signal(signal.SIGINT, _begin_drain)
    state.write_worker_status(force=True)
    logger.info(
        "worker %d (pid %d) serving on %s:%d",
        worker_index, os.getpid(), *httpd.server_address,
    )
    try:
        httpd.serve_forever(POLL_SECONDS)
    finally:
        # Stop accepting first — connects are refused (reuse-port mode)
        # while requests already in flight still complete.
        httpd.server_close()
    deadline = time.monotonic() + drain_seconds
    settled = 0
    while time.monotonic() < deadline:
        # Require several consecutive idle reads: a request that raced the
        # shutdown may sit between accept and its in-flight registration
        # for a moment, and exiting then would truncate its response.
        settled = settled + 1 if state.active_requests == 0 else 0
        if settled >= 3:
            break
        time.sleep(0.02)
    state.write_worker_status(force=True)
    state.close()
    return 0


class Supervisor:
    """Fork, watch, restart, and drain a fleet of service workers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8100,
        *,
        workers: int = 1,
        jobs: Union[int, str] = 1,
        cache_dir: Optional[str] = None,
        max_inflight: Optional[int] = None,
        run_dir: Optional[Union[str, Path]] = None,
        drain_seconds: float = DRAIN_DEADLINE_SECONDS,
    ) -> None:
        from repro.service.handlers import DEFAULT_MAX_INFLIGHT

        if workers < 1:
            raise MCCMError(f"--workers must be >= 1, got {workers}")
        if not hasattr(os, "fork"):
            raise MCCMError("the multi-worker supervisor needs os.fork")
        self.host = host
        self.workers = workers
        self.jobs = jobs
        self.max_inflight = (
            DEFAULT_MAX_INFLIGHT if max_inflight is None else max_inflight
        )
        self.drain_seconds = drain_seconds
        self._owns_run_dir = run_dir is None
        self.run_dir = Path(
            tempfile.mkdtemp(prefix="repro-serve-") if run_dir is None else run_dir
        )
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # No --cache still means one *shared* disk tier for the fleet — an
        # ephemeral one under the run directory — so warm entries survive
        # worker crashes and every worker hits on every other's work.
        self.cache_dir = str(
            Path(cache_dir) if cache_dir is not None else self.run_dir / "cache"
        )
        self._reuse_port = _reuse_port_works(host)
        # Reuse-port mode: hold the port without listening (workers listen).
        # Inherited mode: this is the one listening socket workers share.
        self._socket = _bound_socket(
            host,
            port,
            reuse_port=self._reuse_port,
            listen=None if self._reuse_port else 128,
        )
        self.port = self._socket.getsockname()[1]
        #: pid -> (worker index, spawn monotonic time)
        self._children: Dict[int, Tuple[int, float]] = {}
        self._stopping = False
        self._stop_started: Optional[float] = None
        self._rapid_deaths = 0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # --- child management -----------------------------------------------------
    def _spawn(self, index: int) -> None:
        pid = os.fork()
        if pid != 0:
            self._children[pid] = (index, time.monotonic())
            return
        # Worker child. Shed the supervisor's signal handlers before
        # anything else: they reach into supervisor state that is now a
        # meaningless copy.
        code = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            inherited = None if self._reuse_port else self._socket
            if self._reuse_port:
                # The port-holding placeholder belongs to the parent.
                self._socket.close()
            code = run_worker(
                index,
                self.host,
                self.port,
                inherited=inherited,
                jobs=self.jobs,
                cache_dir=self.cache_dir,
                max_inflight=self.max_inflight,
                shared_dir=self.run_dir,
                drain_seconds=self.drain_seconds,
            )
        except BaseException:  # noqa: BLE001 - the child must never return
            logger.exception("worker %d crashed", index)
        finally:
            os._exit(code)

    def _forget_worker_status(self, pid: int) -> None:
        try:
            (self.run_dir / "workers" / f"{pid}.json").unlink()
        except OSError:
            pass

    def _handle_stop(self, signum: int, _frame) -> None:
        if self._stopping:
            return
        self._stopping = True
        self._stop_started = time.monotonic()
        for pid in list(self._children):
            try:
                os.kill(pid, signal.SIGTERM)
            except OSError:
                pass

    # --- main loop ------------------------------------------------------------
    def run_forever(self) -> int:
        """Serve until SIGTERM/SIGINT; returns the process exit code."""
        signal.signal(signal.SIGTERM, self._handle_stop)
        signal.signal(signal.SIGINT, self._handle_stop)
        for index in range(self.workers):
            self._spawn(index)
        print(
            f"serving MCCM evaluations on {self.url} "
            f"with {self.workers} worker(s) (Ctrl-C to stop)",
            flush=True,
        )
        try:
            while self._children:
                if (
                    self._stopping
                    and self._stop_started is not None
                    and time.monotonic() - self._stop_started
                    > self.drain_seconds + STOP_GRACE_SECONDS
                ):
                    for pid in list(self._children):
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except OSError:
                            pass
                try:
                    pid, status = os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    break
                if pid == 0:
                    # WNOHANG polling (not a blocking wait) keeps the stop
                    # flag responsive: Python retries syscalls after signal
                    # handlers run (PEP 475), so a blocking waitpid would
                    # swallow the SIGTERM wakeup.
                    time.sleep(0.05)
                    continue
                entry = self._children.pop(pid, None)
                self._forget_worker_status(pid)
                if entry is None or self._stopping:
                    continue
                index, spawned = entry
                if time.monotonic() - spawned < RAPID_DEATH_SECONDS:
                    self._rapid_deaths += 1
                    time.sleep(min(1.0, 0.1 * self._rapid_deaths))
                else:
                    self._rapid_deaths = 0
                logger.warning(
                    "worker %d (pid %d) exited with code %s; restarting",
                    index, pid, os.waitstatus_to_exitcode(status),
                )
                self._spawn(index)
        finally:
            self._close()
        print("shutting down", flush=True)
        return 0

    def _close(self) -> None:
        try:
            self._socket.close()
        except OSError:
            pass
        if self._owns_run_dir:
            shutil.rmtree(self.run_dir, ignore_errors=True)
