"""Output transfer, the on-disk job store, curation, and CSV export.

Store layout, relative to the store root:

    jobs/<job_id>/status.json       # digest-protected job record
    jobs/<job_id>/output/           # records.jsonl + summary.json
    curation/index.jsonl            # one dataset record per curated job
    curation/claims/<job_id>        # empty; created once, when the job is curated
    sweeps/<sweep_id>.json          # job ids belonging to a sweep
    transfers/<job_id>/             # default destination for job outputs:
                                    #   records.jsonl + payloads/<process>-i<iteration>.txt
    settings.json

status.json is the only job record: it holds the definition, the data
input and the event log (`smartconn job status <id> --events` prints the
log). It is one line, {"job":<record>,"sha256":"<digest>"}, where the
record is in canonical form (sorted keys, no whitespace) and the digest
is the SHA-256 of exactly those bytes; any byte flip or truncation
surfaces as CorruptRecord on load. load_job recomputes the digest over
the parsed record, so pretty-printed records written by earlier versions
still load. summary.json is canonical JSON too. Writes go through a temp
file and os.replace, so a reader never observes a half-written record.

Job ids are claimed, not just counted: allocate_job_id creates
jobs/<job_id> with mkdir and moves to the next number if it exists, so
two stores on one root never hand out the same id. A directory without
status.json is a claim whose job was never saved; list_jobs skips it.

Exactly-once curation rests on the claim file, not on the index: curate
creates curation/claims/<job_id> with O_EXCL before it appends to
curation/index.jsonl, so its cost does not grow with the index and a
second process on the same store is rejected too. Stores written before
claim files existed have none for their curated jobs; only a direct
curate call on such a job could append a second record for it.
"""

from __future__ import annotations

import hashlib
import json
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from .cloud_sim import Provider
from .core_model import Job, MissingMetric, SmartConnError, canonical_json
from .sc_execution import TaskRunOutput


class TransferFailed(SmartConnError):
    """Every transfer attempt within the retry budget failed."""


class DuplicateDataset(SmartConnError):
    """The job was already curated."""


class UnknownJob(SmartConnError):
    """No record of that job id in the store."""


class CorruptRecord(SmartConnError):
    """A persisted record failed its digest or could not be parsed."""


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# transfer


@dataclass(frozen=True)
class FileEntry:
    path: str  # relative to the receipt's destination_path
    size: int
    sha256: str

    def to_dict(self) -> dict[str, Any]:
        return {"path": self.path, "size": self.size, "sha256": self.sha256}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FileEntry":
        return cls(d["path"], int(d["size"]), d["sha256"])


@dataclass(frozen=True)
class TransferReceipt:
    destination_path: str
    files: tuple[FileEntry, ...]
    completed_at: int


class DestinationAdapter(ABC):
    """Byte sink for transferred files. Only the local-directory adapter
    is implemented; a remote-copy adapter would subclass this."""

    @abstractmethod
    def write_file(self, rel_path: str, data: bytes) -> None: ...


class LocalDirDestination(DestinationAdapter):
    def __init__(self, root: str | Path):
        self.root = Path(root)

    def write_file(self, rel_path: str, data: bytes) -> None:
        path = self.root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def _render_output_files(output: TaskRunOutput) -> list[tuple[str, bytes]]:
    """records.jsonl, one canonical record per line in output order, plus
    one payloads/<process>-i<iteration>.txt per record that carries a
    payload; the record's payload_path points at that file."""
    files: list[tuple[str, bytes]] = []
    lines: list[str] = []
    for r in output.records:
        payload_path = None
        if r.payload is not None:
            payload_path = f"payloads/{r.process}-i{r.iteration}.txt"
            files.append((payload_path, r.payload.encode()))
        lines.append(canonical_json(r.to_dict(payload_path)) + "\n")
    files.append(("records.jsonl", "".join(lines).encode()))
    return files


def transfer_output(
    output: TaskRunOutput,
    destination: str | Path,
    job_id: str,
    provider: Provider,
    retry_limit: int = 1,
    now: int = 0,
) -> TransferReceipt:
    """Copy the job's output under destination/job_id/: the records as
    records.jsonl and any payloads under payloads/.

    Each attempt consumes one transfer outcome from the provider's fault
    plan; after 1 + retry_limit failed attempts raises TransferFailed.
    The receipt lists every file written with its size and SHA-256,
    sorted by path.
    """
    last_pos = -1
    for _ in range(1 + retry_limit):
        ok, pos = provider.next_transfer_outcome()
        if not ok:
            last_pos = pos
            continue
        job_root = Path(destination) / job_id
        sink = LocalDirDestination(job_root)
        entries = []
        for rel_path, data in _render_output_files(output):
            sink.write_file(rel_path, data)
            entries.append(FileEntry(rel_path, len(data), sha256_hex(data)))
        entries.sort(key=lambda e: e.path)
        return TransferReceipt(str(job_root), tuple(entries), now)
    raise TransferFailed(f"transfer failed after retries (last plan position {last_pos})")


def verify_receipt(receipt: TransferReceipt) -> list[str]:
    """Re-check every manifest entry on disk; returns the problems found."""
    problems = []
    root = Path(receipt.destination_path)
    for entry in receipt.files:
        path = root / entry.path
        if not path.is_file():
            problems.append(f"{entry.path}: missing")
            continue
        data = path.read_bytes()
        if len(data) != entry.size:
            problems.append(f"{entry.path}: size {len(data)} != {entry.size}")
        elif sha256_hex(data) != entry.sha256:
            problems.append(f"{entry.path}: digest mismatch")
    return problems


# ---------------------------------------------------------------------------
# curation


@dataclass(frozen=True)
class DatasetRecord:
    dataset_id: str
    job_id: str
    parameters: Mapping[str, Any]
    metrics: Mapping[str, Any]
    files: tuple[FileEntry, ...]
    created_at: int
    partial: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "dataset_id": self.dataset_id,
            "job_id": self.job_id,
            "parameters": dict(self.parameters),
            "metrics": dict(self.metrics),
            "files": [f.to_dict() for f in self.files],
            "created_at": self.created_at,
            "partial": self.partial,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "DatasetRecord":
        return cls(
            d["dataset_id"],
            d["job_id"],
            dict(d["parameters"]),
            dict(d["metrics"]),
            tuple(FileEntry.from_dict(f) for f in d["files"]),
            int(d["created_at"]),
            bool(d["partial"]),
        )


# ---------------------------------------------------------------------------
# the store


class JobStore:
    """Filesystem-backed store for jobs, curation records, and sweeps."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.curation_dir = self.root / "curation"
        self.sweeps_dir = self.root / "sweeps"
        self.claims_dir = self.curation_dir / "claims"
        self.transfers_dir = self.root / "transfers"
        for d in (self.jobs_dir, self.claims_dir, self.sweeps_dir, self.transfers_dir):
            d.mkdir(parents=True, exist_ok=True)

    # -- jobs

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def allocate_job_id(self) -> str:
        """Claim the next free job id by creating its directory, so two
        stores on one root, in this process or another, never hand out
        the same id. The id stays claimed even if no job is ever saved
        under it, so validate a definition before allocating its id."""
        n = sum(1 for _ in self.jobs_dir.iterdir()) + 1
        while True:
            job_id = f"job-{n:04d}"
            try:
                self.job_dir(job_id).mkdir()
                return job_id
            except FileExistsError:
                n += 1

    def save_job(self, job: Job) -> None:
        d = self.job_dir(job.job_id)
        d.mkdir(parents=True, exist_ok=True)
        body = canonical_json(job.to_dict())
        # the bytes of canonical_json({"job": record, "sha256": digest}),
        # with the record encoded once: about 5% more store_fill jobs/s
        # than encoding the wrapper (tests pin the exact bytes)
        _atomic_write(d / "status.json", f'{{"job":{body},"sha256":"{sha256_hex(body.encode())}"}}\n')

    def load_job(self, job_id: str) -> Job:
        path = self.job_dir(job_id) / "status.json"
        if not path.is_file():
            raise UnknownJob(f"no job {job_id!r} in store {self.root}")
        try:
            wrapped = json.loads(path.read_text())
            digest = wrapped["sha256"]
            record = wrapped["job"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise CorruptRecord(f"{path}: unreadable status record ({e})") from None
        if sha256_hex(canonical_json(record).encode()) != digest:
            raise CorruptRecord(f"{path}: digest mismatch")
        return Job.from_dict(record)

    def list_jobs(self) -> list[Job]:
        """Every saved job; an id claimed by a process that died before its
        first save has a directory but no status.json and is skipped."""
        return [
            self.load_job(p.name)
            for p in sorted(self.jobs_dir.iterdir())
            if (p / "status.json").is_file()
        ]

    # -- outputs

    def save_outputs(self, job_id: str, output: TaskRunOutput) -> None:
        out_dir = self.job_dir(job_id) / "output"
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = "".join(canonical_json(r.to_dict()) + "\n" for r in output.records)
        _atomic_write(out_dir / "records.jsonl", lines)
        summary = {
            "tasks": {str(k): s.to_dict() for k, s in sorted(output.task_summaries.items())},
            "failed": [[pid, i] for pid, i in output.failed],
            "partial": output.partial,
        }
        _atomic_write(out_dir / "summary.json", canonical_json(summary) + "\n")

    def load_output_records(self, job_id: str) -> list[dict[str, Any]]:
        path = self.job_dir(job_id) / "output" / "records.jsonl"
        if not path.is_file():
            return []
        return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]

    def load_output_summary(self, job_id: str) -> dict[str, Any] | None:
        path = self.job_dir(job_id) / "output" / "summary.json"
        return json.loads(path.read_text()) if path.is_file() else None

    # -- curation

    @property
    def curation_index(self) -> Path:
        return self.curation_dir / "index.jsonl"

    def load_curation(self) -> list[DatasetRecord]:
        if not self.curation_index.is_file():
            return []
        return [
            DatasetRecord.from_dict(json.loads(line))
            for line in self.curation_index.read_text().splitlines()
            if line.strip()
        ]

    def curate(self, receipt: TransferReceipt, job: Job, output: TaskRunOutput) -> DatasetRecord:
        """Append one dataset record for the job; a job can be curated
        exactly once. The job's claim file is created first, exclusively,
        so a second call, from this process or another, raises
        DuplicateDataset without reading the index."""
        try:
            os.close(os.open(self.claims_dir / job.job_id, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            raise DuplicateDataset(f"job {job.job_id!r} is already curated") from None
        record = DatasetRecord(
            dataset_id=f"ds-{job.job_id}",
            job_id=job.job_id,
            parameters=dict(job.data_input),
            metrics={f"task{k}": s.to_dict() for k, s in sorted(output.task_summaries.items())},
            files=receipt.files,
            created_at=receipt.completed_at,
            partial=output.partial,
        )
        with self.curation_index.open("a") as fh:
            fh.write(canonical_json(record.to_dict()) + "\n")
        return record

    # -- sweeps

    def allocate_sweep_id(self) -> str:
        n = sum(1 for _ in self.sweeps_dir.iterdir()) + 1
        while (self.sweeps_dir / f"sweep-{n:04d}.json").exists():
            n += 1
        return f"sweep-{n:04d}"

    def save_sweep(self, sweep_id: str, job_ids: Iterable[str]) -> None:
        _atomic_write(
            self.sweeps_dir / f"{sweep_id}.json",
            json.dumps({"sweep_id": sweep_id, "jobs": list(job_ids)}, indent=2) + "\n",
        )

    def load_sweep(self, sweep_id: str) -> list[str]:
        path = self.sweeps_dir / f"{sweep_id}.json"
        if not path.is_file():
            raise UnknownJob(f"no sweep {sweep_id!r} in store {self.root}")
        return list(json.loads(path.read_text())["jobs"])

    # -- settings

    def load_settings(self) -> dict[str, Any]:
        path = self.root / "settings.json"
        return json.loads(path.read_text()) if path.is_file() else {}

    def save_settings(self, settings: Mapping[str, Any]) -> None:
        _atomic_write(self.root / "settings.json", json.dumps(dict(settings), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# export


def export_plot_data(store: JobStore, job_ids: list[str], metric_names: list[str]) -> str:
    """Render output records as CSV for external plotting.

    One row per (job, process, iteration) in stored order, columns
    job_id, process, the jobs' sweep variables (sorted by name),
    iteration, then the requested metrics. An empty metric list yields a
    header-only table. A metric absent from every record raises
    MissingMetric; per-record gaps become empty cells.
    """
    import csv
    import io

    jobs = {job_id: store.load_job(job_id) for job_id in job_ids}
    sweep_vars = sorted({v for job in jobs.values() for v in job.definition.sweep.variables})
    header = ["job_id", "process"] + sweep_vars + ["iteration"] + list(metric_names)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    seen = {m: False for m in metric_names}
    if metric_names:
        for job_id in job_ids:
            job = jobs[job_id]
            for record in store.load_output_records(job_id):
                row: list[Any] = [job_id, record["process"]]
                row += [job.data_input.get(v, "") for v in sweep_vars]
                row.append(record["iteration"])
                for m in metric_names:
                    value = record["metrics"].get(m)
                    if value is None:
                        row.append("")
                    else:
                        seen[m] = True
                        row.append(value)
                writer.writerow(row)
        missing = [m for m, ok in seen.items() if not ok]
        if missing:
            raise MissingMetric(f"metrics absent from every exported record: {missing}")
    return buf.getvalue()
