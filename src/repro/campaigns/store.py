"""Persistent campaign result store: append-only JSONL + in-memory index.

Layout of a store directory::

    <store>/
      spec.json       # the CampaignSpec (written once, atomically)
      results.jsonl   # one record per completed/failed task, append-only
      leases.jsonl    # present when a campaign service drives the store
                      # (see repro.campaigns.service)

Records are flat JSON objects ``{"task_id", "status", "seconds", "task",
"result", "error"}`` (runs routed through a retry policy also carry
``"attempt"`` and ``"backoff_seconds"``).  Appends go through one
persistent file handle guarded by an advisory ``fcntl`` lock -- the first
append locks the log for the life of the store object, so a second writer
(a stray ``repro sweep`` against a store a service owns, say) fails fast
with :class:`StoreLockedError` instead of interleaving records silently.
Every append flushes + fsyncs before returning, so a crash loses at most
the record being written; :meth:`ResultStore.open` rebuilds the index by
scanning the log, silently dropping a torn *trailing* line (the normal
crash artifact) but warning with a line number on any undecodable line
mid-log, since that indicates real damage.  Re-recording a task id appends
a new line and the *latest* record wins -- the log is an audit trail, the
index is the truth.

``ResultStore.ephemeral`` keeps the same interface fully in memory, for
runs that need no files on disk.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path

try:  # advisory locking is POSIX-only; Windows degrades to no locking
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from .spec import CampaignSpec, lenient_methods

_SPEC_FILE = "spec.json"
_RESULTS_FILE = "results.jsonl"

#: Record statuses.  A task absent from the index is *pending*.
STATUS_DONE = "done"
STATUS_FAILED = "failed"


class StoreLockedError(RuntimeError):
    """Another process (or store object) holds this store's write lock."""


class ResultStore:
    """Index over a campaign's append-only result log.

    Use the constructors: :meth:`create` for a fresh directory,
    :meth:`open` to reopen an existing one (resume, status, reporting),
    and :meth:`ephemeral` for an in-memory store.  Read paths never
    lock; the first :meth:`append` acquires the store's exclusive
    advisory write lock and keeps it until :meth:`close`.
    """

    def __init__(self, path: Path | None, spec: CampaignSpec):
        self.path = Path(path) if path is not None else None
        self.spec = spec
        self._records: dict[str, dict] = {}
        self._attempts: dict[str, int] = {}
        self._fh = None
        self._append_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str | Path, spec: CampaignSpec) -> "ResultStore":
        """Initialize a new store directory (must not already hold one)."""
        path = Path(path)
        if path.exists() and not path.is_dir():
            raise NotADirectoryError(f"store path {path} is not a directory")
        if (path / _RESULTS_FILE).exists():
            raise FileExistsError(
                f"{path} already holds a campaign store; "
                f"open() it to resume or pick a fresh directory")
        path.mkdir(parents=True, exist_ok=True)
        _atomic_write(path / _SPEC_FILE,
                      json.dumps(spec.to_dict(), indent=2) + "\n")
        (path / _RESULTS_FILE).touch()
        return cls(path, spec)

    @classmethod
    def open(cls, path: str | Path) -> "ResultStore":
        """Reopen an existing store, rebuilding the index from the log."""
        path = Path(path)
        spec_path = path / _SPEC_FILE
        if not spec_path.exists():
            raise FileNotFoundError(f"no campaign store at {path} "
                                    f"(missing {_SPEC_FILE})")
        # read path: the producing process may have registered methods
        # this one has not; status/report must still work
        with lenient_methods():
            store = cls(path, CampaignSpec.load(spec_path))
        results = path / _RESULTS_FILE
        if results.exists():
            lines = results.read_text().splitlines()
            for lineno, line in enumerate(lines, start=1):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    if lineno == len(lines):
                        continue  # torn trailing line from a crash
                    # an undecodable line *followed by valid ones* is not
                    # a crash artifact -- surface it instead of silently
                    # shrinking the campaign
                    warnings.warn(
                        f"corrupt record at {results}:{lineno} "
                        f"(mid-log, not a torn tail) -- skipping it; "
                        f"the store may have been damaged or edited",
                        RuntimeWarning, stacklevel=2)
                    continue
                tid = record["task_id"]
                store._records[tid] = record
                store._attempts[tid] = store._attempts.get(tid, 0) + 1
        return store

    @classmethod
    def ephemeral(cls, spec: CampaignSpec) -> "ResultStore":
        """In-memory store (no files) for one-off campaigns."""
        return cls(None, spec)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _writer(self):
        """The persistent, advisory-locked append handle (lazy)."""
        if self._fh is None:
            fh = open(self.path / _RESULTS_FILE, "a")
            if fcntl is not None:
                try:
                    fcntl.flock(fh.fileno(),
                                fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    fh.close()
                    raise StoreLockedError(
                        f"{self.path} is already being written by another "
                        f"runner/service; two concurrent writers would "
                        f"interleave records") from None
            self._fh = fh
        return self._fh

    def append(self, record: dict) -> None:
        """Checkpoint one task record (flush + fsync when file-backed).

        The first file-backed append takes the store's exclusive write
        lock (:class:`StoreLockedError` if another writer holds it).
        """
        if "task_id" not in record or "status" not in record:
            raise ValueError("record needs task_id and status")
        with self._append_lock:
            if self.path is not None:
                fh = self._writer()
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            tid = record["task_id"]
            self._records[tid] = record
            self._attempts[tid] = self._attempts.get(tid, 0) + 1

    def close(self) -> None:
        """Release the write handle and its advisory lock (idempotent)."""
        with self._append_lock:
            if self._fh is not None:
                self._fh.close()  # closing drops the flock
                self._fh = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def record(self, task_id: str) -> dict | None:
        return self._records.get(task_id)

    def records(self) -> list[dict]:
        """Latest record per task, in first-recorded order."""
        return list(self._records.values())

    def attempts(self, task_id: str) -> int:
        """Executions recorded for a task so far (log lines, not index)."""
        return self._attempts.get(task_id, 0)

    def completed_ids(self) -> set[str]:
        return {tid for tid, r in self._records.items()
                if r["status"] == STATUS_DONE}

    def failed_ids(self) -> set[str]:
        return {tid for tid, r in self._records.items()
                if r["status"] == STATUS_FAILED}

    def counts(self) -> dict[str, int]:
        """``{"total", "done", "failed", "pending"}`` against the spec.

        A store may hold records of tasks outside the spec's grid (an
        appended record the grid does not expand to); the total grows
        to cover them so counts stay consistent.
        """
        total = max(self.spec.num_tasks, len(self._records))
        done = len(self.completed_ids())
        failed = len(self.failed_ids())
        return {"total": total, "done": done, "failed": failed,
                "pending": total - done - failed}

    def total_seconds(self) -> float:
        """Summed task wall time recorded so far."""
        return sum(r.get("seconds", 0.0) for r in self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        where = "memory" if self.path is None else str(self.path)
        return (f"ResultStore({where!r}, campaign={self.spec.name!r}, "
                f"records={len(self._records)})")


def _atomic_write(path: Path, text: str) -> None:
    """Write-then-rename so readers never see a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
