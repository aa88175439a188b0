"""A ``repro-engine`` server in a subprocess on loopback, for the remote traced window.

The server binds ``--port 0``; readiness and the OS-assigned port come
from its machine-readable ``listening on tcp://...`` line, read under a
deadline.  ``stop()`` always terminates the process (kill after a grace
period) and waits for it, and the owner calls it in a ``finally``.
"""

from __future__ import annotations

import os
import re
import selectors
import subprocess
import sys
import time
from typing import Optional

from bench_inputs import SCALE

READY_TIMEOUT_S = 60.0
STOP_GRACE_S = 10.0
_LISTENING = re.compile(r"listening on (tcp://\S+)")


class EngineProcess:
    """One ``python -m repro.engine.remote`` child serving the JOB dataset."""

    def __init__(self, root: str, log_path: str, db_seed: int = 1) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(log_path, "ab")
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.engine.remote", "job",
                 "--scale", str(SCALE), "--seed", str(db_seed),
                 "--host", "127.0.0.1", "--port", "0"],
                cwd=root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=self._log,
            )
            self.url = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        pending = b""
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(f"repro-engine not listening within {READY_TIMEOUT_S}s")
                if not selector.select(timeout=remaining):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"repro-engine exited with {self.proc.wait(timeout=STOP_GRACE_S)} "
                        f"before listening"
                    )
                pending += chunk
                self._log.write(chunk)
                match = _LISTENING.search(pending.decode("utf-8", "replace"))
                if match:
                    return match.group(1)
        finally:
            selector.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), 0.0 where /proc is absent."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        """Terminate and reap the server; idempotent."""
        proc, self.proc = self.proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=STOP_GRACE_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=STOP_GRACE_S)
            proc.stdout.close()
        if not self._log.closed:
            self._log.close()
