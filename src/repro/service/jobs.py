"""Persistent job store: the state of every campaign the service has seen.

The scenario service must remember submitted jobs across process restarts --
a coordinator that forgets its queue on redeploy cannot serve long-running
campaigns.  :class:`JobStore` persists every job (its submitted spec, state,
progress, timings, result and error) in a single-file sqlite3 database, the
stdlib's crash-safe embedded store, journalled in WAL mode (see
:class:`JobStore`); passing no path keeps the same schema in a private
in-memory database for tests and throwaway servers.

The store is deliberately dumb: it knows nothing about scenarios, engines or
HTTP.  It offers the five primitives the scheduler needs --

* :meth:`JobStore.submit` to append a ``queued`` job, and
  :meth:`JobStore.submit_or_reuse` -- its atomic find-or-submit twin keyed by
  a ``dedupe_key`` (the scenario content hash), which is what makes
  submission idempotent even under concurrent identical requests,
* :meth:`JobStore.claim_next` to atomically move the oldest ``queued`` job to
  ``running`` (safe against concurrent worker threads),
* :meth:`JobStore.update_progress` / :meth:`JobStore.finish` /
  :meth:`JobStore.fail` / :meth:`JobStore.mark_cancelled` to record outcomes,
* :meth:`JobStore.request_cancel` for cooperative cancellation (queued jobs
  cancel immediately; running jobs get a flag their progress hook polls),
* :meth:`JobStore.recover_interrupted` to re-queue jobs that were ``running``
  when a previous server process died.

Job states form a small machine::

    queued --> running --> done | failed | cancelled
       |
       +-----------------> cancelled
"""

from __future__ import annotations

import functools
import json
import logging
import os
import sqlite3
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.devtools.lockwatch import tracked_lock
from repro.obs import metrics as _metrics

__all__ = ["JOB_STATES", "JobRecord", "JobStore"]

#: Every state a job can be in; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Every column but ``result``: what a finalize returns, since it already
#: holds the result's text and need not read it back.
_HEAD_COLUMNS = (
    "id, kind, spec, dedupe_key, state, chunks_done, chunks_total, error,"
    " cancel_requested, submitted_at, started_at, finished_at, phases"
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    kind             TEXT NOT NULL,
    spec             TEXT NOT NULL,
    dedupe_key       TEXT,
    state            TEXT NOT NULL,
    chunks_done      INTEGER NOT NULL DEFAULT 0,
    chunks_total     INTEGER NOT NULL DEFAULT 0,
    result           TEXT,
    error            TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    phases           TEXT
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, submitted_at);
CREATE INDEX IF NOT EXISTS jobs_dedupe ON jobs (dedupe_key);
CREATE TABLE IF NOT EXISTS traces (
    job_id      TEXT PRIMARY KEY REFERENCES jobs (id),
    trace       TEXT NOT NULL,
    recorded_at REAL NOT NULL
);
"""


@dataclass(frozen=True)
class JobRecord:
    """Immutable snapshot of one job row.

    ``spec`` is the submitted request payload (plain JSON data) and
    ``result`` the execution outcome (also plain JSON data), so a record
    round-trips through the HTTP API without further conversion.  The
    result is held as ``result_json``, the text the store wrote, and decoded
    only on first access of :attr:`result`: serving a finished job
    (:meth:`to_json_bytes`) splices that text and never decodes it.
    """

    id: str
    kind: str
    spec: Dict[str, Any]
    state: str
    dedupe_key: Optional[str] = None
    chunks_done: int = 0
    chunks_total: int = 0
    #: The result payload's ``json.dumps`` text, encoded once at finalize.
    result_json: Optional[str] = field(default=None, repr=False)
    error: Optional[str] = None
    cancel_requested: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Per-phase wall-time breakdown recorded at completion (seconds):
    #: ``queue_wait_s`` / ``compute_s`` / ``cache_s`` (see JobScheduler).
    phases: Optional[Dict[str, float]] = None

    @functools.cached_property
    def result(self) -> Optional[Dict[str, Any]]:
        """The result payload, decoded from :attr:`result_json` on first access."""
        return json.loads(self.result_json) if self.result_json is not None else None

    @property
    def is_terminal(self) -> bool:
        """True once the job can never change state again."""
        return self.state in ("done", "failed", "cancelled")

    def to_dict(self, *, include_result: bool = True) -> Dict[str, Any]:
        """JSON-compatible form (the HTTP representation of a job)."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "spec": self.spec,
            "state": self.state,
            "progress": {"chunks_done": self.chunks_done, "chunks_total": self.chunks_total},
            "cancel_requested": self.cancel_requested,
            "timings": {
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "phases": self.phases,
            },
            "error": self.error,
        }
        if include_result:
            payload["result"] = self.result
        return payload

    def to_json_bytes(self) -> bytes:
        """The ``GET /v1/jobs/{id}`` body: ``json.dumps({"job": self.to_dict()})``.

        Byte-identical to that expression, but the result's stored text is
        spliced in after the record's head (``result`` is the last key of
        :meth:`to_dict`) instead of being decoded and encoded again.
        """
        head = json.dumps({"job": self.to_dict(include_result=False)})
        result = self.result_json if self.result_json is not None else "null"
        return f'{head[:-2]}, "result": {result}}}}}'.encode("utf-8")


class JobStore:
    """sqlite3-backed store of service jobs, usable from many threads.

    Parameters
    ----------
    path:
        Database file, created on first use.  ``None`` keeps the store in
        memory (same schema and semantics, gone when the store is closed) --
        the fallback for tests and ephemeral servers.

    One connection is shared across threads behind a lock: the store's
    operations are short transactions, and a single writer sidesteps
    sqlite's writer-starvation corner cases.

    A file-backed store runs in WAL mode with ``synchronous=NORMAL``: a
    commit appends to ``<path>-wal`` (beside ``<path>-shm``, the WAL index)
    and syncs only at checkpoints, so a state transition costs a write, not
    the rollback journal's fsyncs.  A crash of the process loses no
    committed transition; a power loss may roll back the newest ones but
    never corrupts the database.

    Every mutation notifies listeners registered with :meth:`subscribe`
    (the gateway's read snapshot and SSE hub are both fed this way), with
    the :class:`JobRecord` the write produced (``UPDATE ... RETURNING``, no
    re-read), on the mutating thread.

    Example::

        >>> store = JobStore()                  # JobStore("jobs.db") persists
        >>> record = store.submit("campaign", {"scenario": {}})
        >>> record.state
        'queued'
        >>> store.get(record.id).id == record.id
        True
        >>> store.close()
    """

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self.path = None if path is None else os.fspath(path)
        if self.path is not None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        self._lock = tracked_lock("service.jobs.store", threading.RLock)
        self._listeners: List[Callable[[JobRecord], None]] = []
        self._conn = sqlite3.connect(
            self.path if self.path is not None else ":memory:",
            check_same_thread=False,
        )
        self._conn.row_factory = sqlite3.Row
        if self.path is not None:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            # Schema migration for databases created before the per-job
            # phase breakdown existed (pre-observability PRs).
            columns = {
                row["name"]
                for row in self._conn.execute("PRAGMA table_info(jobs)").fetchall()
            }
            if "phases" not in columns:
                self._conn.execute("ALTER TABLE jobs ADD COLUMN phases TEXT")

    @contextmanager
    def _timed_op(self, op: str) -> Iterator[None]:
        """Time one store operation into ``repro_jobstore_op_seconds{op}``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            _metrics.get_registry().histogram(
                "repro_jobstore_op_seconds",
                "Duration of JobStore sqlite operations.",
                labelnames=("op",),
            ).observe(time.perf_counter() - start, op=op)

    # ------------------------------------------------------------------
    # Change listeners
    # ------------------------------------------------------------------

    def subscribe(self, listener: Callable[[JobRecord], None]) -> None:
        """Register a callback invoked with the fresh record after every change.

        This is the seam the asyncio gateway's in-memory snapshot and its SSE
        progress streams hang off: instead of polling sqlite, read models are
        *pushed* every state transition (submit, claim, progress, finalize,
        cancel, recovery).  Listeners run synchronously on whichever thread
        performed the mutation -- they must be fast, must not raise, and must
        never call back into the store (deadlock by re-entrancy).

        Example::

            >>> store = JobStore()
            >>> seen = []
            >>> store.subscribe(lambda record: seen.append(record.state))
            >>> job = store.submit("campaign", {})
            >>> store.claim_next() is not None
            True
            >>> seen
            ['queued', 'running']
        """
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[JobRecord], None]) -> None:
        """Remove a previously registered listener (no-op when unknown)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify(self, record: JobRecord) -> None:
        """Push the record a write just produced to every listener."""
        for listener in list(self._listeners):
            try:
                listener(record)
            except Exception:  # noqa: BLE001 - a read model must not kill writers
                logging.getLogger("repro.service.jobs").exception(
                    "job-store listener failed for job %s", record.id
                )

    def _write(self, op: str, sql: str, params: Tuple = (), **overrides) -> List[JobRecord]:
        """Run one ``... RETURNING`` write in its own transaction; push its records.

        ``overrides`` supply record fields the write did not return (see
        :meth:`_finalize`).
        """
        with self._timed_op(op), self._lock, self._conn:
            rows = self._conn.execute(sql, params).fetchall()
        records = [self._record(row, **overrides) for row in rows]
        for record in records:
            self._notify(record)
        return records

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------

    def submit(
        self,
        kind: str,
        spec: Dict[str, Any],
        *,
        dedupe_key: Optional[str] = None,
    ) -> JobRecord:
        """Append a new ``queued`` job and return its record."""
        (record,) = self._write(
            "submit",
            "INSERT INTO jobs (id, kind, spec, dedupe_key, state, submitted_at)"
            " VALUES (?, ?, ?, ?, 'queued', ?) RETURNING *",
            (uuid.uuid4().hex[:16], kind, json.dumps(spec), dedupe_key, time.time()),
        )
        return record

    def submit_or_reuse(
        self, kind: str, spec: Dict[str, Any], dedupe_key: str
    ) -> "Tuple[JobRecord, bool]":
        """Atomic find-or-submit: the deduplication primitive.

        Returns ``(record, reused)``.  The lookup and the insert happen under
        the store lock, so two threads submitting the same content
        concurrently can never both enqueue it -- the idempotency guarantee
        ('identical requests cost one simulation, ever') holds under the
        threaded HTTP server, not just sequentially.
        """
        with self._lock:
            existing = self.find_reusable(dedupe_key)
            if existing is not None:
                return existing, True
            return self.submit(kind, spec, dedupe_key=dedupe_key), False

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The record for ``job_id``, or None when unknown."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return self._record(row) if row is not None else None

    def find_reusable(self, dedupe_key: str) -> Optional[JobRecord]:
        """The newest queued/running/done job with this dedupe key, if any.

        Failed and cancelled jobs are never reused: resubmitting after a
        failure must produce a fresh attempt.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE dedupe_key = ? AND state IN"
                " ('queued', 'running', 'done')"
                " ORDER BY submitted_at DESC LIMIT 1",
                (dedupe_key,),
            ).fetchone()
        return self._record(row) if row is not None else None

    def list_jobs(
        self,
        *,
        state: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[JobRecord]:
        """All jobs, newest first, optionally filtered by state and/or kind."""
        query = "SELECT * FROM jobs"
        clauses, params = [], []
        if state is not None:
            if state not in JOB_STATES:
                raise ValueError(f"unknown state {state!r}; expected one of {JOB_STATES}")
            clauses.append("state = ?")
            params.append(state)
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY submitted_at DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [self._record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (states with no jobs included as 0)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    # ------------------------------------------------------------------
    # Scheduler primitives
    # ------------------------------------------------------------------

    def claim_next(self) -> Optional[JobRecord]:
        """Atomically move the oldest ``queued`` job to ``running``.

        Returns the claimed record, or None when the queue is empty.  The
        oldest-queued lookup is a subquery of the one ``UPDATE``, so two
        worker threads can never claim the same job.
        """
        claimed = self._write(
            "claim_next",
            "UPDATE jobs SET state = 'running', started_at = ? WHERE id ="
            " (SELECT id FROM jobs WHERE state = 'queued' ORDER BY submitted_at LIMIT 1)"
            " RETURNING *",
            (time.time(),),
        )
        return claimed[0] if claimed else None

    def update_progress(self, job_id: str, done: int, total: int) -> None:
        """Record chunk progress for a running job."""
        self._write(
            "update_progress",
            "UPDATE jobs SET chunks_done = ?, chunks_total = ? WHERE id = ? RETURNING *",
            (int(done), int(total), job_id),
        )

    def record_phases(self, job_id: str, phases: Dict[str, float]) -> None:
        """Persist a job's wall-time phase breakdown (seconds per phase).

        Written by the scheduler when execution finishes (whatever the
        outcome); surfaced through :meth:`JobRecord.to_dict` under
        ``timings.phases`` and by ``repro jobs --stats``.
        """
        self._write(
            "record_phases",
            "UPDATE jobs SET phases = ? WHERE id = ? RETURNING *",
            (json.dumps({k: float(v) for k, v in phases.items()}), job_id),
        )

    def record_trace(self, job_id: str, trace: Dict[str, Any]) -> None:
        """Persist a job's finished span-record tree payload.

        ``trace`` is the plain-dict form the scheduler builds from the job's
        :class:`~repro.obs.tracing.Trace` -- ``{"correlation_id", "dropped",
        "spans": [...]}`` -- stored as one JSON blob in the ``traces`` table
        (created by ``_SCHEMA`` on every connect, the table analogue of the
        ``phases`` column migration, so pre-trace databases upgrade in
        place).  Re-recording replaces the previous trace (a recovered,
        re-executed job keeps only its final attempt's tree).  Traces are not
        pushed to listeners: the read models track job *state*, traces are
        fetched on demand.
        """
        with self._timed_op("record_trace"), self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO traces (job_id, trace, recorded_at) VALUES (?, ?, ?)"
                " ON CONFLICT (job_id) DO UPDATE SET trace = excluded.trace,"
                " recorded_at = excluded.recorded_at",
                (job_id, json.dumps(trace), time.time()),
            )

    def get_trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The persisted trace payload for ``job_id``, or None when absent."""
        with self._timed_op("get_trace"), self._lock:
            row = self._conn.execute(
                "SELECT trace FROM traces WHERE job_id = ?", (job_id,)
            ).fetchone()
        return json.loads(row["trace"]) if row is not None else None

    def finish(self, job_id: str, result: Dict[str, Any]) -> None:
        """Mark a job ``done`` with its result payload."""
        self._finalize(job_id, "done", result=result)

    def fail(self, job_id: str, error: str) -> None:
        """Mark a job ``failed`` with an error message."""
        self._finalize(job_id, "failed", error=error)

    def mark_cancelled(self, job_id: str) -> None:
        """Mark a job ``cancelled`` (its execution was abandoned)."""
        self._finalize(job_id, "cancelled")

    def _finalize(
        self,
        job_id: str,
        state: str,
        *,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        # The result is encoded here, once: the row, the pushed record and
        # every GET body (JobRecord.to_json_bytes) share this text.
        result_json = json.dumps(result) if result is not None else None
        self._write(
            "finalize",
            "UPDATE jobs SET state = ?, result = ?, error = ?, finished_at = ?"
            f" WHERE id = ? RETURNING {_HEAD_COLUMNS}",
            (state, result_json, error, time.time(), job_id),
            result_json=result_json,
        )

    def request_cancel(self, job_id: str) -> Optional[JobRecord]:
        """Ask for a job to be cancelled; returns the updated record.

        A ``queued`` job is cancelled on the spot.  A ``running`` job gets
        its ``cancel_requested`` flag set and keeps running until its
        progress hook notices (cooperative cancellation between chunks).
        Terminal jobs are returned unchanged; unknown ids return None.
        """
        # One statement decides and writes (SET expressions read the old
        # row), so a claim cannot slip between the state check and the update.
        updated = self._write(
            "request_cancel",
            "UPDATE jobs SET cancel_requested = 1,"
            " state = CASE state WHEN 'queued' THEN 'cancelled' ELSE state END,"
            " finished_at = CASE state WHEN 'queued' THEN ? ELSE finished_at END"
            " WHERE id = ? AND state IN ('queued', 'running') RETURNING *",
            (time.time(), job_id),
        )
        return updated[0] if updated else self.get(job_id)

    def cancel_requested(self, job_id: str) -> bool:
        """True when cancellation has been requested for this job."""
        with self._lock:
            row = self._conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return bool(row["cancel_requested"]) if row is not None else False

    def recover_interrupted(self) -> int:
        """Re-queue jobs left ``running`` by a dead server process.

        Called once at scheduler start-up: any job still marked running
        cannot actually be running (this process just started), so it is
        returned to the queue with its progress reset.  Returns the number of
        recovered jobs.
        """
        return len(self._write(
            "recover_interrupted",
            "UPDATE jobs SET state = 'queued', started_at = NULL,"
            " chunks_done = 0, chunks_total = 0 WHERE state = 'running' RETURNING *",
        ))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (in-memory stores lose their data)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        where = self.path if self.path is not None else ":memory:"
        return f"JobStore(path={where!r})"

    @staticmethod
    def _record(row: sqlite3.Row, **overrides) -> JobRecord:
        if "result_json" not in overrides:
            overrides["result_json"] = row["result"]
        return JobRecord(
            id=row["id"],
            kind=row["kind"],
            spec=json.loads(row["spec"]),
            state=row["state"],
            dedupe_key=row["dedupe_key"],
            chunks_done=row["chunks_done"],
            chunks_total=row["chunks_total"],
            error=row["error"],
            cancel_requested=bool(row["cancel_requested"]),
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            phases=json.loads(row["phases"]) if row["phases"] is not None else None,
            **overrides,
        )
