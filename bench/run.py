"""smartconn benchmark: workloads run through the public API and the
in-process CLI, with an optional traced run for per-layer figures.

    python3 bench/run.py --workload store_fill --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40
    python3 bench/run.py --write-spec

Run it from the root of a checkout: smartconn is imported from ./src,
and all the files the run makes (stores, transfer destinations, temp
dirs) live under ./.bench_work and are removed at the end. The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. See bench/README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import layers  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

RUN_SECONDS = 40  # measured seconds per run; BENCHMARK.json's run_seconds
SETUPS = 9  # set-ups per run; setup_s is their median
MIN_ROUNDS = 3  # the count-determinism gate compares rounds
WALL_LIMIT_S = 120.0  # no new round starts after this
REFERENCE_PASSES = 40  # timed passes of the reference loop before each round
# The reported times are scaled to a host on which the fastest pass of the
# reference loop takes this long; a 2-vCPU Xeon VM measured 2.83 to 3.21 ms.
REFERENCE_MS = 3.0

# name -> (unit, better, bound); bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression
END_TO_END = {
    "jobs_per_s": ("jobs/s", "higher", 0.25),
    "job_ms_p50": ("ms", "lower", 0.25),
    "job_ms_p90": ("ms", "lower", 0.25),
    "records_per_s": ("records/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}
# printed with the others but not bounded: failed_frac is 0 on a correct
# run, and export_s does not exist on the store-less fault_fleet
REPORTED_ONLY = {"export_s": "s", "failed_frac": "ratio"}

# the workloads BENCHMARK.json lists; wide_job runs on request only, because
# its 30k file creations per round vary too much on ext4 without a journal
# (see bench/README.md)
GATED = {
    "store_fill": "120 jobs of the two-task connector through the CLI into one fresh store, then one export: "
                  "per-job store cost grows with the store",
    "fault_fleet": "2000 store-less jobs, each under its own seeded fault plan: the fault paths, "
                   "with the store bypassed",
}

_FS_MAGIC = {
    0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs",
    0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
}


def fs_type(path: Path) -> str:
    """The filesystem type of path, from statfs(2)."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        statfs = libc.statfs
    except (OSError, AttributeError):
        return "unknown"
    statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    statfs.restype = ctypes.c_int
    buf = ctypes.create_string_buffer(256)  # struct statfs is 120 bytes on 64-bit Linux
    if statfs(os.fsencode(str(path)), buf) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def spread_new_dirs(path: Path) -> bool:
    """Ask ext4 to place each new subdirectory of path in a block group
    of its own choosing, as it does for directories under the filesystem
    root (chattr +T). Otherwise every round's files go next to the ones
    the previous round just deleted, and on ext4 without a journal, which
    avoids reusing recently freed inodes, a file create then took about
    0.4 ms instead of 0.02 to 0.1 ms. The program's own code path is
    unchanged. Returns whether the hint is set."""
    import fcntl
    import struct

    fs_ioc_getflags, fs_ioc_setflags, fs_topdir_fl = 0x80086601, 0x40086602, 0x00020000
    fd = os.open(path, os.O_RDONLY)
    try:
        flags = struct.unpack("i", fcntl.ioctl(fd, fs_ioc_getflags, struct.pack("i", 0)))[0]
        fcntl.ioctl(fd, fs_ioc_setflags, struct.pack("i", flags | fs_topdir_fl))
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


_REFERENCE_ROWS = json.dumps(
    [{"a": i, "b": [1.5] * 10, "c": "x" * 30, "d": {"e": i * 0.5}} for i in range(60)]
)


def reference_pass() -> int:
    """One pass of a fixed stdlib loop, in ns. It shares no code with
    smartconn, so its time tracks only how fast the host runs Python."""
    start = time.perf_counter_ns()
    for _ in range(10):
        json.dumps(json.loads(_REFERENCE_ROWS), sort_keys=True)
    return time.perf_counter_ns() - start


def time_reference(samples: list[int], problems: list[str]) -> None:
    """Time REFERENCE_PASSES passes with the collector off, so the
    program's heap cannot slow them, and with no other thread running."""
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count() - 1} threads running while the reference loop was timed")
    gc.disable()
    try:
        samples.extend(reference_pass() for _ in range(REFERENCE_PASSES))
    finally:
        gc.enable()


def quantile(values: list[float], q: int) -> float:
    """The q-th decile, interpolated within the samples (wide_job has one)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    started = time.monotonic()
    # unique names: ext4 picks a spread directory's block group from a hash of its name
    tag = os.getpid()
    setup_times = []
    for k in range(SETUPS):
        start = time.perf_counter()
        prep = workloads.prepare(workload, seed, work / f"setup-{tag}-{k}")
        setup_times.append(time.perf_counter() - start)
    tracer = Tracer()
    if trace:
        layers.instrument(tracer, prep.mods)
    play = workloads.round_runner(workload, seed)

    rounds, per_layer, problems = [], [], []
    reference_ns: list[int] = []
    measured = 0.0
    while len(rounds) < MIN_ROUNDS or (
        measured + rounds[-1].loop_s + (rounds[-1].export_s or 0.0) <= seconds
        and time.monotonic() - started < WALL_LIMIT_S
    ):
        gc.collect()
        time_reference(reference_ns, problems)
        tracer.reset()
        round_dir = work / f"round-{tag}-{len(rounds)}"
        r = play(prep, round_dir, tracer)
        measured += r.loop_s + (r.export_s or 0.0)
        if trace:
            per_layer.append(layers.round_metrics(tracer, r.store_dir))
            problems += layers.span_problems(tracer, workload)
        rounds.append(r)
        problems += r.problems
        shutil.rmtree(round_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # count-determinism gate: every round had the same inputs
    for i, r in enumerate(rounds[1:], start=1):
        if r.counts != rounds[0].counts:
            problems.append(f"round {i} counts {r.counts} differ from round 0 {rounds[0].counts}")
    for name in per_layer[0] if per_layer else ():
        if name not in layers.TIMED and len({m[name] for m in per_layer}) > 1:
            problems.append(f"count {name} differs between rounds: {[m[name] for m in per_layer]}")

    # Every round does the same work, and job k of one round is the same
    # call as job k of every other: same inputs, same store contents. On a
    # shared host the same call runs up to twice as slow while a neighbour
    # is busy, so each job position is timed by its fastest repeat over the
    # rounds. The host's fastest speed itself drifts from minute to minute,
    # so every time is then scaled by the reference loop's fastest pass of
    # the same run.
    reference_ms = min(reference_ns) / 1e6
    scale = REFERENCE_MS / reference_ms
    best_ns = [min(ns) for ns in zip(*(r.job_ns for r in rounds))]
    best_loop_s = sum(best_ns) / 1e9 * scale
    job_ms = [ns / 1e6 * scale for ns in best_ns]
    attempted = sum(r.jobs for r in rounds)
    failed = sum(r.failed for r in rounds)
    exports = [r.export_s for r in rounds if r.export_s is not None]
    end_to_end = {
        "jobs_per_s": rounds[0].jobs / best_loop_s,
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p90": quantile(job_ms, 9),
        "records_per_s": rounds[0].records / best_loop_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times) * scale,
    }
    unscaled = {
        "jobs_per_s": end_to_end["jobs_per_s"] * scale,
        "job_ms_p50": end_to_end["job_ms_p50"] / scale,
        "job_ms_p90": end_to_end["job_ms_p90"] / scale,
        "setup_s": end_to_end["setup_s"] / scale,
    }
    pooled_ms = [ns / 1e6 for r in rounds for ns in r.job_ns]
    as_run = {
        "jobs_per_s": attempted / sum(r.loop_s for r in rounds),
        "job_ms_p50": statistics.median(pooled_ms),
        "job_ms_p90": quantile(pooled_ms, 9),
    }
    reported = {
        "export_s": statistics.median(exports) if exports else None,
        "failed_frac": failed / attempted,
    }
    layer_medians = {}
    if trace:
        layer_medians = {name: statistics.median(m[name] for m in per_layer) for name in per_layer[0]}
        layer_medians["trace.jobs_per_s"] = end_to_end["jobs_per_s"]
    return {
        "rounds": rounds,
        "job_samples": len(job_ms),
        "as_run": as_run,
        "unscaled": unscaled,
        "reference_ms": reference_ms,
        "reference_passes": len(reference_ns),
        "end_to_end": end_to_end,
        "reported": reported,
        "per_layer": layer_medians,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def print_report(workload: str, seed: int, trace: bool, work: Path, spread: bool, res: dict) -> None:
    rounds = res["rounds"]
    print(f"workload {workload}  seed {seed}  rounds {len(rounds)}  work dir filesystem {fs_type(work)} "
          f"(directories spread over block groups: {'yes' if spread else 'no'})")
    print(f"  counts per round {rounds[0].counts}")
    print("  job loop seconds per round: " + " ".join(f"{r.loop_s:.3f}" for r in rounds))
    print(f"  reference loop: fastest of {res['reference_passes']} passes {res['reference_ms']:.4f} ms; "
          f"times below are scaled by {REFERENCE_MS} / {res['reference_ms']:.4f}")
    best = f"fastest of {len(rounds)} repeats of each of {res['job_samples']} job calls, scaled"
    notes = {
        "jobs_per_s": f"jobs per round / sum of the {best}",
        "job_ms_p50": best,
        "job_ms_p90": best,
        "records_per_s": f"records per round / sum of the {best}",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"median of {SETUPS} set-ups, scaled",
        "export_s": "not applicable: no store" if res["reported"]["export_s"] is None
        else f"median of {len(rounds)} rounds, not scaled",
        "failed_frac": f"{res['failed']} of {res['attempted']} jobs failed a check",
    }
    units = {name: spec[0] for name, spec in END_TO_END.items()} | REPORTED_ONLY
    for name, value in list(res["end_to_end"].items()) + list(res["reported"].items()):
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown:>12} {units[name]:<10} ({notes[name]})")
    print("  the same, not scaled: " + "  ".join(
        f"{name} {value:.6g}" for name, value in res["unscaled"].items()))
    print("  all rounds as run, not scaled: " + "  ".join(
        f"{name} {value:.6g}" for name, value in res["as_run"].items()))
    if trace:
        print("per-layer, per round (times: median over rounds; counts: exact):")
        for name, value in res["per_layer"].items():
            print(f"  {name:<42} {value:>14.6g} {layers.PER_LAYER[name][0]}")
        print("  time waited: not measured, the engine is single-threaded with no queue or lock")
    for p in res["problems"][:20]:
        print(f"problem: {p}")
    print("REPORT " + json.dumps({
        "workload": workload, **res["end_to_end"], **res["reported"],
        "job_samples": res["job_samples"], "rounds": len(rounds),
    }))


def run_all(seed: int, seconds: int) -> int:
    """Each workload in its own process (peak RSS is per process), then one table."""
    table, code = [], 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        reports = [line[len("REPORT "):] for line in proc.stdout.splitlines() if line.startswith("REPORT ")]
        if reports:
            table.append(json.loads(reports[-1]))
    units = {name: spec[0] for name, spec in END_TO_END.items()} | REPORTED_ONLY
    print(f"{'metric':<15}{'unit':<11}" + "".join(f"{r['workload']:>14}" for r in table))
    for name, unit in units.items():
        cells = "".join("{:>14}".format("-" if r[name] is None else f"{r[name]:.6g}") for r in table)
        print(f"{name:<15}{unit:<11}{cells}")
    return code


def write_spec() -> None:
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": why} for w, why in GATED.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in layers.PER_LAYER.items()],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "smartconn" / "__init__.py").is_file():
        print(f"error: smartconn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tmp = work / "tmp"
    work.mkdir(parents=True)
    spread = spread_new_dirs(work)
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)  # replay and store-less transfers use tempfile
    tempfile.tempdir = str(tmp)
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
        import smartconn

        if not Path(smartconn.__file__).resolve().is_relative_to(SRC.resolve()):
            res["problems"].append(f"imported smartconn from {smartconn.__file__}, not {SRC}")
        print_report(args.workload, args.seed, bool(args.trace), work, spread, res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    correct = not res["problems"]
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    units = {n: spec[0] for n, spec in END_TO_END.items()} | {n: spec[0] for n, spec in layers.PER_LAYER.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
