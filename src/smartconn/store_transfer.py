"""Output transfer, the on-disk job store, curation, and CSV export.

Store layout, relative to the store root:

    jobs/<job_id>/status.json       # digest-protected job record
    jobs/<job_id>/output/           # records.jsonl + summary.json
    curation/index.jsonl            # one dataset record per curated job
    curation/claims/<job_id>        # empty; created once, when the job is curated
    sweeps/<sweep_id>.json          # empty while claimed, then the sweep's job ids
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
still load. summary.json is canonical JSON too. Writes go through a
per-thread temp file, <name>.<pid>.<thread id>.tmp, and os.replace, so a
reader never observes a half-written record and concurrent writers of one
file, in other processes or other threads, never share a temp file; a
failed write or rename removes its temp file.

The job's records.jsonl is encoded once (TaskRunOutput.records_jsonl):
transfer_output and save_outputs write the same bytes, so a stored
record's payload_path names the payload file under the job's transfer
root. A job whose transfer failed has no such file.

Job ids are claimed, not just counted: allocate_job_id creates
jobs/<job_id> with mkdir and moves to the next number if it exists, so
two stores on one root never hand out the same id. status.json is
written once, when the job completes; until then, and for good if its
process dies midway, the job is only that directory, which list_jobs
skips. The first candidate comes from a search that lists no directory
(see _first_unclaimed), so allocation does not grow with the store.
Sweep ids are found the same way and claimed by creating an empty
sweeps/<sweep_id>.json with O_EXCL, which save_sweep replaces.

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
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .cloud_sim import SimulatedProvider
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


def _atomic_write(path: Path, data: bytes) -> None:
    """Write through <name>.<pid>.<thread id>.tmp and os.replace: a reader
    sees the old or the new file, and writers in different processes or
    threads never share a temp file. A failed write or rename removes its
    temp file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _first_unclaimed(path_of: Callable[[int], str], guess: int = 0) -> int:
    """The smallest n >= 1 whose path_of(n) does not exist: gallop up to a
    bound, then bisect, in O(log n) probes. This assumes the claimed
    numbers are the prefix 1..N, which holds because the program never
    removes a claim. Where one was removed by hand, the search may return
    a number past the gap or in it; either is unclaimed, and the caller's
    exclusive create stays the arbiter.

    The gallop starts at guess when that is claimed, so a guess of N
    costs two probes; a wrong guess costs one probe more than none.
    A probe is os.access(F_OK): the existence test the exclusive create
    makes, at a quarter of the cost of os.path.isdir's stat result."""
    def claimed(n: int) -> bool:
        return os.access(path_of(n), os.F_OK)

    # invariant: lo == 0 or claimed(lo); hi is the next probe
    lo, hi = (guess, guess + 1) if guess > 0 and claimed(guess) else (0, 1)
    while claimed(hi):
        lo, hi = hi, hi + 2 * (hi - lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if claimed(mid):
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# transfer


class FileEntry(NamedTuple):
    path: str  # relative to the receipt's destination_path
    size: int
    sha256: str

    def to_dict(self) -> dict[str, Any]:
        return {"path": self.path, "size": self.size, "sha256": self.sha256}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FileEntry":
        return cls(d["path"], int(d["size"]), d["sha256"])


class TransferReceipt(NamedTuple):
    destination_path: str
    files: tuple[FileEntry, ...]
    completed_at: int


def transfer_output(
    output: TaskRunOutput,
    destination: str | Path,
    job_id: str,
    provider: SimulatedProvider,
    retry_limit: int = 1,
    now: int = 0,
) -> TransferReceipt:
    """Copy the job's output under destination/job_id/: records.jsonl
    (output.records_jsonl, the bytes save_outputs stores) and one
    payloads/<process>-i<iteration>.txt per record that carries a
    payload, at the record's payload_path.

    Each attempt consumes one transfer outcome from the provider's fault
    plan; after 1 + retry_limit failed attempts raises TransferFailed.
    A successful attempt creates its directories with one makedirs. The
    receipt lists every file written with its size and SHA-256, sorted by
    path.
    """
    last_pos = -1
    for _ in range(1 + retry_limit):
        ok, pos = provider.next_transfer_outcome()
        if not ok:
            last_pos = pos
            continue
        job_root = str(Path(destination) / job_id)
        files = [(r.payload_path, r.payload.encode()) for r in output.records if r.payload is not None]
        os.makedirs(f"{job_root}/payloads" if files else job_root, exist_ok=True)
        files.append(("records.jsonl", output.records_jsonl))
        entries = []
        for rel_path, data in files:
            with open(f"{job_root}/{rel_path}", "wb") as fh:
                fh.write(data)
            entries.append(FileEntry(rel_path, len(data), sha256_hex(data)))
        entries.sort(key=lambda e: e.path)
        return TransferReceipt(job_root, tuple(entries), now)
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


class DatasetRecord(NamedTuple):
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
        # claims/ is made last, so an existing store costs one stat to open
        if not self.claims_dir.is_dir():
            for d in (self.jobs_dir, self.sweeps_dir, self.transfers_dir, self.claims_dir):
                d.mkdir(parents=True, exist_ok=True)

    # -- jobs

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def allocate_job_id(self) -> str:
        """Claim the next free job id by creating its directory, so two
        stores on one root, in this process or another, never hand out
        the same id. The id stays claimed even if no job is ever saved
        under it, so validate a definition before allocating its id.
        Finding the first candidate lists no directory (_first_unclaimed).
        """
        jobs = str(self.jobs_dir)
        # a directory's link count is 2 + its subdirectories on ext4, xfs
        # and tmpfs: the claim count when jobs/ holds only claims
        n = _first_unclaimed(lambda n: f"{jobs}/job-{n:04d}", os.stat(jobs).st_nlink - 2)
        while True:
            job_id = f"job-{n:04d}"
            try:
                self.job_dir(job_id).mkdir()
                return job_id
            except FileExistsError:
                n += 1

    def save_job(self, job: Job) -> None:
        path = self.job_dir(job.job_id) / "status.json"
        body = canonical_json(job.to_dict())
        # the bytes of canonical_json({"job": record, "sha256": digest}),
        # with the record encoded once: about 5% more store_fill jobs/s
        # than encoding the wrapper (tests pin the exact bytes)
        data = f'{{"job":{body},"sha256":"{sha256_hex(body.encode())}"}}\n'.encode()
        try:
            _atomic_write(path, data)
        except FileNotFoundError:  # an id not claimed by allocate_job_id
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write(path, data)

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
        """Every saved job; the claimed directory of a job still running,
        or of one whose process died, has no status.json and is skipped."""
        return [
            self.load_job(p.name)
            for p in sorted(self.jobs_dir.iterdir())
            if (p / "status.json").is_file()
        ]

    # -- outputs

    def save_outputs(self, job_id: str, output: TaskRunOutput) -> None:
        out_dir = self.job_dir(job_id) / "output"
        out_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(out_dir / "records.jsonl", output.records_jsonl)
        summary = {
            "tasks": {str(k): s.to_dict() for k, s in sorted(output.task_summaries.items())},
            "failed": [[pid, i] for pid, i in output.failed],
            "partial": output.partial,
        }
        _atomic_write(out_dir / "summary.json", (canonical_json(summary) + "\n").encode())

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
        """Claim the next free sweep id by creating its empty record with
        O_EXCL, so two stores on one root never hand out the same id. The
        search is allocate_job_id's; save_sweep replaces the claim."""
        sweeps = str(self.sweeps_dir)
        n = _first_unclaimed(lambda n: f"{sweeps}/sweep-{n:04d}.json")
        while True:
            sweep_id = f"sweep-{n:04d}"
            try:
                os.close(os.open(f"{sweeps}/{sweep_id}.json", os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return sweep_id
            except FileExistsError:
                n += 1

    def save_sweep(self, sweep_id: str, job_ids: Iterable[str]) -> None:
        _atomic_write(
            self.sweeps_dir / f"{sweep_id}.json",
            (json.dumps({"sweep_id": sweep_id, "jobs": list(job_ids)}, indent=2) + "\n").encode(),
        )

    def load_sweep(self, sweep_id: str) -> list[str]:
        path = self.sweeps_dir / f"{sweep_id}.json"
        if not path.is_file():
            raise UnknownJob(f"no sweep {sweep_id!r} in store {self.root}")
        try:
            return list(json.loads(path.read_text())["jobs"])
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            # an empty file is an id claimed by a sweep that was never saved
            raise CorruptRecord(f"{path}: unreadable sweep record ({e})") from None

    # -- settings

    def load_settings(self) -> dict[str, Any]:
        path = self.root / "settings.json"
        return json.loads(path.read_text()) if path.is_file() else {}

    def save_settings(self, settings: Mapping[str, Any]) -> None:
        text = json.dumps(dict(settings), indent=2, sort_keys=True) + "\n"
        _atomic_write(self.root / "settings.json", text.encode())


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
