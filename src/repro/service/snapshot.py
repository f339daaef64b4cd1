"""In-memory read model of the job store for the serving hot path.

Status traffic ("is my job done yet?") outnumbers every other request the
service sees, and at gateway throughput it must never queue behind sqlite or
starve the compute workers.  :class:`ServiceSnapshot` keeps a live copy of
every job record in plain dictionaries, refreshed *push-style*: it
subscribes to :meth:`JobStore.subscribe`, so each state transition (submit,
claim, per-chunk progress, finalize, cancel, restart recovery) lands in the
snapshot on the mutating thread, and the read endpoints
(``GET /v1/jobs``, ``GET /v1/jobs/{id}``, ``/v1/healthz``) are answered
entirely from memory.  The hottest representation -- the serialized JSON
body of ``GET /v1/jobs/{id}`` for a job still in flight -- is cached per job
and invalidated on transition, so steady-state polling costs one dict
lookup, zero serialization and zero sqlite.  A finished job's body is
spliced per request from its record's stored result text
(:meth:`JobRecord.to_json_bytes`), so the snapshot holds each result once,
encoded, and never decodes it.

The snapshot is a *cache of truth, not truth*: the sqlite store remains the
system of record (durability, restart recovery), the snapshot is rebuilt
from it with :meth:`prime` at gateway start.

Example::

    >>> from repro.service.jobs import JobStore
    >>> store = JobStore()
    >>> snapshot = ServiceSnapshot(store)
    >>> snapshot.attach()                 # prime + subscribe
    >>> job = store.submit("campaign", {})
    >>> snapshot.get(job.id)["state"]     # no store read involved
    'queued'
    >>> snapshot.counts()["queued"]
    1
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.devtools.lockwatch import tracked_lock
from repro.obs import metrics as _metrics
from repro.service.jobs import JOB_STATES, JobRecord, JobStore

__all__ = ["ServiceSnapshot"]


class ServiceSnapshot:
    """Push-refreshed in-memory view of every job in a :class:`JobStore`.

    Parameters
    ----------
    store:
        The job store to mirror.  :meth:`attach` primes the snapshot from it
        and subscribes for transitions; :meth:`detach` unsubscribes.

    Thread-safety: transitions arrive on scheduler/HTTP threads while the
    gateway's event loop reads concurrently; every access takes the
    snapshot's lock (all operations are dict updates or shallow copies, so
    the critical sections are tiny).

    Example::

        >>> from repro.service import JobStore, ServiceSnapshot
        >>> store = JobStore()
        >>> snapshot = ServiceSnapshot(store)
        >>> snapshot.attach()            # prime + subscribe for transitions
        >>> len(snapshot)
        0
        >>> snapshot.job_bytes("nope") is None   # pre-serialized hot path
        True
        >>> snapshot.detach()
        >>> store.close()
    """

    def __init__(self, store: JobStore) -> None:
        self._store = store
        self._lock = tracked_lock("service.snapshot")
        self._records: Dict[str, JobRecord] = {}
        self._body_cache: Dict[str, bytes] = {}
        self._attached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Prime from the store and start receiving transitions (idempotent)."""
        if self._attached:
            return
        self._store.subscribe(self.on_record)
        self._attached = True
        self.prime()

    def detach(self) -> None:
        """Stop receiving transitions (the snapshot keeps its last state)."""
        if self._attached:
            self._store.unsubscribe(self.on_record)
            self._attached = False

    def prime(self) -> None:
        """(Re)load every job from the store -- the one bulk sqlite read."""
        records = self._store.list_jobs()
        with self._lock:
            self._records = {record.id: record for record in records}
            self._body_cache.clear()
        self._refresh_gauges()

    def on_record(self, record: JobRecord) -> None:
        """Store listener: fold one fresh record into the snapshot."""
        with self._lock:
            self._records[record.id] = record
            self._body_cache.pop(record.id, None)
        _metrics.get_registry().counter(
            "repro_snapshot_refreshes_total",
            "Job-state transitions folded into the in-memory snapshot.",
        ).inc()
        self._refresh_gauges()

    # ------------------------------------------------------------------
    # Read API (what the gateway serves from)
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Full job dict (including result) or None -- memory only."""
        with self._lock:
            record = self._records.get(job_id)
        return record.to_dict() if record is not None else None

    def record(self, job_id: str) -> Optional[JobRecord]:
        """The raw :class:`JobRecord`, or None when unknown."""
        with self._lock:
            return self._records.get(job_id)

    def job_bytes(self, job_id: str) -> Optional[bytes]:
        """Serialized ``{"job": {...}}`` response body for one job.

        A body without a result is cached until the job's next transition:
        the steady-state status poll costs a dict lookup, not a
        ``json.dumps``.  A body with one is spliced from the record's stored
        text on each call rather than kept as a second copy of the result.
        """
        with self._lock:
            body = self._body_cache.get(job_id)
            if body is not None:
                return body
            record = self._records.get(job_id)
            if record is None:
                return None
            body = record.to_json_bytes()
            if record.result_json is None:
                self._body_cache[job_id] = body
            return body

    def list_jobs(
        self,
        *,
        state: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Job summaries (no result payloads), newest first -- memory only.

        Mirrors :meth:`JobStore.list_jobs` filtering exactly, including the
        :exc:`ValueError` on an unknown ``state`` (the HTTP 400 contract).
        """
        if state is not None and state not in JOB_STATES:
            raise ValueError(f"unknown state {state!r}; expected one of {JOB_STATES}")
        with self._lock:
            records = list(self._records.values())
        records.sort(key=lambda record: record.submitted_at, reverse=True)
        out: List[Dict[str, Any]] = []
        for record in records:
            if state is not None and record.state != state:
                continue
            if kind is not None and record.kind != kind:
                continue
            out.append(record.to_dict(include_result=False))
            if limit is not None and len(out) >= int(limit):
                break
        return out

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (all states present) -- memory only."""
        counts = {state: 0 for state in JOB_STATES}
        with self._lock:
            for record in self._records.values():
                counts[record.state] += 1
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def _refresh_gauges(self) -> None:
        _metrics.get_registry().gauge(
            "repro_snapshot_jobs", "Jobs held by the in-memory snapshot."
        ).set(len(self))

    def __repr__(self) -> str:
        return f"ServiceSnapshot(jobs={len(self)}, attached={self._attached})"
