"""Load generator: the server process, the closed-loop submitter, the poller.

One process, at most two threads (the submitter runs on the caller's thread,
the poller on its own) and two open connections (the submitter's current
request and the poller's keep-alive connection).
"""

from __future__ import annotations

import gc
import http.client
import json
import select
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.service import ServiceClient, ServiceError
from workloads import sample_digest

HERE = Path(__file__).resolve().parent

#: Seconds a single request, event stream or server reply may take.
TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot go on (server did not start, warm-up failed...)."""


class ServerProcess:
    """``perfbench/server.py`` in a child process, driven over stdin/stdout."""

    def __init__(self, workdir: Path, cache_dir: Path, *, probes: bool = False) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self._log_path = workdir / "server.log"
        self._log = open(self._log_path, "wb")
        command = [
            sys.executable, str(HERE / "server.py"),
            "--db", str(workdir / "jobs.sqlite"),
            "--cache-dir", str(cache_dir),
        ]
        if probes:
            command.append("--probes")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        try:
            port = self._read()["port"]
        except BaseException:
            self.stop()
            raise
        self.host = "127.0.0.1"
        self.port = int(port)
        self.url = f"http://{self.host}:{self.port}"

    def _read(self) -> Dict[str, Any]:
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self._log.flush()
            log = self._log_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"server process gave no reply; its log ends:\n{log}")
        return json.loads(line)

    def command(self, name: str) -> Dict[str, Any]:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            for stream in (self.proc.stdin, self.proc.stdout):
                stream.close()
            self._log.close()


@dataclass
class JobSample:
    """One closed-loop job as the client saw it."""

    index: int
    job_id: Optional[str] = None
    submit_s: Optional[float] = None
    latency_s: Optional[float] = None
    fetch_s: Optional[float] = None
    result_bytes: int = 0
    #: ``CLOCK_MONOTONIC`` instant the terminal SSE event arrived.
    end_event_at: Optional[float] = None
    #: The terminal record; its result is kept only as ``digest``.
    record: Optional[Dict[str, Any]] = None
    digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def submitted(self) -> bool:
        return self.job_id is not None

    @property
    def done(self) -> bool:
        return self.error is None and self.record is not None


def run_job(client: ServiceClient, index: int, scenario: Dict[str, Any],
            chunk_size: Optional[int], on_submitted=None) -> JobSample:
    """Submit, follow over SSE, then fetch the terminal record with its result."""
    sample = JobSample(index)
    start = time.perf_counter()
    try:
        job = client.submit_campaign(scenario, chunk_size=chunk_size)
        sample.submit_s = time.perf_counter() - start
        if job["deduplicated"]:
            raise BenchError(f"submission {index} was deduplicated")
        sample.job_id = job["id"]
        if on_submitted is not None:
            on_submitted(sample.job_id)
        # The events generator is closed before the fetch, so the submitter
        # never holds two connections.
        events = client.events(sample.job_id, timeout=TIMEOUT_S)
        try:
            for event, _ in events:
                if event == "end":
                    sample.end_event_at = time.monotonic()
                    break
        finally:
            events.close()
        if sample.end_event_at is None:
            raise BenchError(f"event stream of job {sample.job_id} ended early")
        fetch_start = time.perf_counter()
        with urllib.request.urlopen(
            f"{client.base_url}/v1/jobs/{sample.job_id}", timeout=TIMEOUT_S
        ) as response:
            body = response.read()
        record = json.loads(body)["job"]
        end = time.perf_counter()
        sample.fetch_s = end - fetch_start
        sample.latency_s = end - start
        sample.result_bytes = len(body)
        if record["state"] != "done":
            raise BenchError(f"job {sample.job_id} ended {record['state']}: {record['error']}")
        # Hundreds of parsed ~300 KB results would make the generator's own
        # garbage collector stall both threads mid-run.
        sample.digest = sample_digest(record.pop("result")["makespans"])
        sample.record = record
    except (BenchError, ServiceError, OSError, ValueError, KeyError) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
    return sample


class Poller(threading.Thread):
    """Open-loop ``GET /v1/jobs/{id}`` of the job in flight on a fixed schedule.

    Poll ``i`` is due at ``start + i * interval``; its latency runs from the due
    time to the last byte of the reply, so a stalled reply also delays the
    polls queued behind it.  ``lateness`` records how far behind schedule
    each request was sent.
    """

    def __init__(self, host: str, port: int, target, *, start: float,
                 count: int, interval: float) -> None:
        super().__init__(name="perfbench-poller", daemon=True)
        self.host, self.port = host, port
        self.target = target
        self.start_at, self.count, self.interval = start, count, interval
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.failed = 0

    def run(self) -> None:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
        try:
            for i in range(self.count):
                due = self.start_at + i * self.interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.lateness.append(time.perf_counter() - due)
                try:
                    conn.request("GET", f"/v1/jobs/{self.target()}")
                    response = conn.getresponse()
                    response.read()
                    ok = response.status == 200
                except (OSError, http.client.HTTPException):
                    conn.close()
                    ok = False
                if ok:
                    self.latencies.append(time.perf_counter() - due)
                else:
                    self.failed += 1
        finally:
            conn.close()


@dataclass
class Phase:
    """The timed closed loop: its job samples, polls and elapsed time."""

    samples: List[JobSample]
    elapsed_s: float
    poller: Poller
    rss_peak_mb: Optional[float] = None

    @property
    def done(self) -> List[JobSample]:
        return [sample for sample in self.samples if sample.done]


def run_phase(server: ServerProcess, jobs: Iterable, *, seconds: float,
              chunk_size: Optional[int], first_job: str, poll_interval: float,
              rss_after: Optional[int] = None) -> Phase:
    """Closed loop with one submitter plus the open-loop poller.

    ``jobs`` yields ``(index, scenario dict)``; submission stops once
    ``seconds`` have passed (the job in flight then completes and counts) or
    when ``jobs`` runs out.  ``first_job`` is polled until the first
    submission lands.  With ``rss_after`` the server's RSS high-water mark is
    read after that many jobs (or at the end when fewer ran).
    """
    client = ServiceClient(server.url, timeout=TIMEOUT_S)
    in_flight = [first_job]
    start = time.perf_counter()
    poller = Poller(server.host, server.port, lambda: in_flight[0], start=start,
                    count=int(round(seconds / poll_interval)), interval=poll_interval)
    poller.start()
    samples: List[JobSample] = []
    rss = None
    # The load generator's own collector pauses would be timed as service
    # latency; what it allocates per job is freed by reference counting.
    gc.disable()
    try:
        for index, scenario in jobs:
            if time.perf_counter() - start >= seconds:
                break
            samples.append(run_job(client, index, scenario, chunk_size,
                                   on_submitted=lambda job_id: in_flight.__setitem__(0, job_id)))
            if rss_after is not None and len(samples) == rss_after:
                rss = server.command("stats")["rss_peak_mb"]
        elapsed = time.perf_counter() - start
    finally:
        poller.join(timeout=seconds + 2 * TIMEOUT_S)
        gc.enable()
    if rss_after is not None and rss is None:
        rss = server.command("stats")["rss_peak_mb"]
    return Phase(samples, elapsed, poller, rss)
