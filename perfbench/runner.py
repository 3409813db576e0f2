"""Drive the program through its public surfaces.

* one-shot: a fresh ``python -m repro <argv> --artifact DIR`` process;
  its records come back through the run artifact it writes;
* service: a ``repro serve --jobs 1`` process with a private cache
  directory and an explicit ``--state-file``, fed through
  ``ServiceClient.sweep``.

Every child gets a pinned environment: all ``REPRO_*`` variables are
dropped, then ``REPRO_CACHE_DIR`` points at the run's private directory
and ``PYTHONPATH`` at this checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0
SERVER_START_TIMEOUT_S = 60.0


def work_root() -> Path:
    path = ROOT / ".perfbench-work"
    path.mkdir(exist_ok=True)
    return path


def pinned_env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def environment_record() -> dict:
    """What each result is only comparable under."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned": {"PYTHONPATH": "src", "REPRO_CACHE_DIR": "private per run"},
        "unset": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def repro_cmd(argv: List[str], trace_dir: Optional[Path], inv_id: str) -> List[str]:
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *argv]
    return [
        sys.executable, str(HERE / "traced.py"),
        "--spans", str(trace_dir), "--id", inv_id, "--", *argv,
    ]


@dataclass
class Outcome:
    time: object  # hostspeed.Interval
    records: List[Optional[dict]]
    error: str = ""


def _artifact_records(art_dir: Path) -> List[dict]:
    records: List[dict] = []
    for path in sorted(art_dir.glob("sweep-*.json")):
        records.extend(json.loads(path.read_text(encoding="utf-8"))["records"])
    return records


def run_invocation(inv, workdir: Path, clock, trace_dir: Optional[Path] = None,
                   inv_id: str = "") -> Outcome:
    """Run one fresh CLI process, timed by *clock*; records align with
    ``inv.points``."""
    art_dir = Path(tempfile.mkdtemp(prefix="art-", dir=workdir))
    cmd = repro_cmd([*inv.argv, "--artifact", str(art_dir)], trace_dir, inv_id)
    env = pinned_env(workdir / "cache")
    clock.start()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=workdir, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Outcome(clock.stop(), [None] * len(inv.points),
                       f"timed out after {CHILD_TIMEOUT_S:.0f}s")
    took = clock.stop()
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return Outcome(took, [None] * len(inv.points),
                       f"exit {proc.returncode}: {tail[0]}")
    by_point = {
        (r["algorithm"], r["nranks"], r["nbytes"]): r
        for r in _artifact_records(art_dir)
    }
    records = [by_point.get(p[:3]) for p in inv.points]
    return Outcome(took, records)


def probe_startup(workdir: Path, clock):
    """Time of a fresh ``python -m repro`` that simulates nothing."""
    clock.start()
    subprocess.run(
        repro_cmd(["--help"], None, ""), env=pinned_env(workdir / "cache"),
        cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    return clock.stop()


@dataclass
class Server:
    """One ``repro serve --jobs 1`` process with a private cache dir."""

    workdir: Path
    clock: object
    trace_dir: Optional[Path] = None
    setup: object = None  # hostspeed.Interval
    proc: Optional[subprocess.Popen] = None
    client: object = None
    cache_dir: Path = field(default=Path("."))

    def start(self) -> "Server":
        from repro.errors import ServiceError
        from repro.service import ServiceClient

        self.cache_dir = Path(tempfile.mkdtemp(prefix="svc-", dir=self.workdir))
        state = self.cache_dir / "service.json"
        cmd = repro_cmd(
            ["serve", "--jobs", "1", "--cache-dir", str(self.cache_dir),
             "--state-file", str(state)],
            self.trace_dir, "serve",
        )
        log = open(self.cache_dir / "server.log", "wb")
        self.clock.start()
        start = time.perf_counter()
        try:
            # Own process group, so a hung server can be killed together
            # with its pool workers. Not its own session: with scheduler
            # autogroups a new session would get an equal share of the CPU
            # against the calibrator, whatever the calibrator's niceness.
            self.proc = subprocess.Popen(
                cmd, env=pinned_env(self.cache_dir), cwd=self.workdir,
                stdout=log, stderr=subprocess.STDOUT, process_group=0,
            )
        finally:
            log.close()
        deadline = start + SERVER_START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not answer ping in time")
            try:
                info = json.loads(state.read_text(encoding="utf-8"))
                client = ServiceClient(info["host"], info["port"])
                client.ping(timeout=2.0)
                break
            except (OSError, ValueError, KeyError, ServiceError):
                time.sleep(0.005)
        self.setup = self.clock.stop()
        self.client = client
        return self

    def stop(self) -> None:
        """Ask the server to drain its pool and exit; wait until it has."""
        if self.proc is None:
            return
        if self.proc.poll() is None and self.client is not None:
            self.client.shutdown_server(timeout=10.0)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass

    def kill(self) -> None:
        """SIGKILL whatever is left of the server's process group."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def __enter__(self) -> "Server":
        try:
            return self.start()
        except BaseException:
            self.kill()
            raise

    def __exit__(self, *exc) -> None:
        try:
            self.stop()
        finally:
            self.kill()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
