"""grplab benchmark: runs the workloads and reports their metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the job list of one workload (see ``workloads.py``) as sequential
``grplab`` CLI processes, one at a time with ``--threads 1``.  The whole list
runs at least once and is repeated while a repetition still fits in
``--seconds``.  Every job's output is checked (``checks.py``); on the default
seed its bytes must also match the digest pinned in ``digests.json``.
CPU time is read only from this process's own children, with ``os.wait4``;
each job reports its own peak resident set.  Generated inputs go to a temporary directory inside the
checkout, which is removed at the end.

Each job process first runs a fixed reference that does not touch grplab
(interpreter start, ``import numpy`` and a calibration loop, see
``launch.py``).  The host's speed drifts by 10-20 % within minutes on a
shared 2-core machine, and both the job and its reference run in the same
process at nearly the same moment, so their ratio cancels the drift while any
change to grplab moves only the job's part.

With ``--trace 0`` the end-to-end metrics are reported, each a sum (or, for
memory, the maximum) over jobs of the per-job median across repetitions:

* ``wall_ref``: wall time of the job list, interpreter start and import
  included, divided by the wall time of the jobs' references;
* ``cpu_ref``: user + system CPU time of the job processes, divided by the
  CPU time of their references;
* ``setup_s``: seconds from spawn until ``import grplab`` is done, plus the
  seconds spent inside ``build_group`` (table CSV validation, PSL2
  enumeration, permutation closure), at the reference speed: scaled by
  ``REFERENCE_NOMINAL_S`` over the run's mean reference time per job;
* ``peak_rss_mb``: the largest peak resident set of any job process.

The uncorrected ``wall_s``, ``cpu_s`` and set-up seconds are printed as well.  With
``--trace 1`` untraced and traced repetitions alternate; the traced ones wrap
every grplab module (``tracing.py``) and give the per-layer metrics, medians
over traced repetitions, plus ``trace.overhead_s``, the traced minus the
untraced wall time of the job list.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn and prefixes each metric with its workload.
``--write-digests`` runs every workload once on the default seed and pins the
digests of the checked outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
DIGESTS = HERE / "digests.json"

import checks  # noqa: E402  (imported from the script's own directory)
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
JOB_TIMEOUT_S = 90.0
RUN_LIMIT_S = 165.0
END_TO_END = (("wall_ref", "ratio"), ("cpu_ref", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# a job's reference time on the machine of the first baseline (see design.json)
REFERENCE_NOMINAL_S = 0.25
_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class JobRun:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float
    reference_s: float
    reference_cpu_s: float
    digest: str
    error: Optional[str]
    layers: Optional[Dict[str, float]] = None


class Runner:
    """Runs the jobs of one workload in a temporary directory and checks them."""

    def __init__(self, jobs: List[workloads.Job], workdir: Path, pinned: Dict[str, str], deadline: float) -> None:
        self.jobs = jobs
        self.workdir = workdir
        self.deadline = deadline
        self.pinned = pinned
        self.verified: Dict[tuple, Optional[str]] = {}
        self.env = {**os.environ, **_THREAD_ENV}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        for job in jobs:
            for name, text in job.files.items():
                (workdir / name).write_text(text, encoding="utf-8")

    def run_job(self, index: int, job: workloads.Job, traced: bool) -> JobRun:
        out_path = self.workdir / f".job{index}.out"
        err_path = self.workdir / f".job{index}.err"
        result_path = self.workdir / f".job{index}.json"
        result_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawn_t = time.monotonic()
            returncode, wall, usage = self.spawn(
                [str(LAUNCHER), repr(spawn_t), str(result_path), str(int(traced)), "--", *job.argv], spawn_t, out, err
            )
        stdout = out_path.read_bytes()
        digest = hashlib.sha256(stdout).hexdigest()
        error = None
        setup = reference = reference_cpu = rss_mb = 0.0
        cpu = usage.ru_utime + usage.ru_stime
        layers = None
        if returncode != 0:
            error = "timed out" if returncode < 0 else f"exit code {returncode}: {err_path.read_text()[-300:]}"
        else:
            error = self.check(job, stdout, digest)
            try:
                record = json.loads(result_path.read_text())
            except (OSError, ValueError) as exc:
                record = None
                error = error or f"no job record: {exc}"
            if record is not None:
                wall -= record["calibration_s"]
                cpu -= record["calibration_cpu"]
                reference = record["reference_s"]
                reference_cpu = record["reference_cpu"]
                import_s = record["import_done"] - spawn_t - record["calibration_s"]
                setup = import_s + record["build_s"]
                rss_mb = record["peak_rss_kb"] / 1024.0
                if traced:
                    layers = tracing.summarize(record["trace"], import_s)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{job.name}: {error}")
        return JobRun(job.name, wall, cpu, rss_mb, setup, reference, reference_cpu, digest, error, layers)

    def spawn(self, args: List[str], spawn_t: float, out, err) -> tuple:
        """Run ``python3 ARGS`` to completion; exit code, wall time and the
        child's resource usage from ``wait4``."""
        proc = subprocess.Popen([sys.executable, *args], cwd=self.workdir, stdout=out, stderr=err, env=self.env)
        timer = threading.Timer(max(min(JOB_TIMEOUT_S, self.deadline - time.monotonic()), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - spawn_t
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def check(self, job: workloads.Job, stdout: bytes, digest: str) -> Optional[str]:
        key = (job.name, digest)
        if key not in self.verified:
            try:
                job.check(json.loads(stdout))
                error = None
            except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
            pinned = self.pinned.get(job.name)
            if error is None and pinned is not None and pinned != digest:
                error = "report bytes differ from the pinned digest"
            self.verified[key] = error
        return self.verified[key]

    def run_pass(self, traced: bool) -> Optional[List[JobRun]]:
        """One run of the whole job list; None when the time limit cut it."""
        runs = []
        for index, job in enumerate(self.jobs):
            if time.monotonic() > self.deadline - 1.0:
                self.errors.append(f"{job.name}: refused, the run time limit was reached")
                self.attempted += 1
                self.failed += 1
                return None
            runs.append(self.run_job(index, job, traced))
            if runs[-1].error == "timed out":
                return None
        return runs


def _median_per_job(passes: List[List[JobRun]], field: str) -> List[float]:
    return [statistics.median(getattr(p[i], field) for p in passes) for i in range(len(passes[0]))]


def end_to_end(passes: List[List[JobRun]]) -> Dict[str, float]:
    """The end-to-end metrics, plus the uncorrected seconds."""
    wall = sum(_median_per_job(passes, "wall_s"))
    cpu = sum(_median_per_job(passes, "cpu_s"))
    setup = sum(_median_per_job(passes, "setup_s"))
    reference = _median_per_job(passes, "reference_s")
    slowdown = sum(reference) / (len(reference) * REFERENCE_NOMINAL_S)
    return {
        "wall_ref": wall / sum(reference),
        "cpu_ref": cpu / sum(_median_per_job(passes, "reference_cpu_s")),
        "setup_s": setup / slowdown,
        "peak_rss_mb": max(_median_per_job(passes, "rss_mb")),
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s_uncorrected": setup,
    }


def per_layer(untraced: List[List[JobRun]], traced: List[List[JobRun]]) -> Dict[str, float]:
    per_pass = []
    for runs in traced:
        totals = {name: 0.0 for name in tracing.metric_names()}
        for job_run in runs:
            for name, value in job_run.layers.items():
                totals[name] += value
        per_pass.append(tracing.finish(totals))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in tracing.metric_names()}
    metrics["trace.overhead_s"] = statistics.median(sum(r.wall_s for r in p) for p in traced) - statistics.median(
        sum(r.wall_s for r in p) for p in untraced
    )
    return metrics


def pinned_digests(seed: int) -> Dict[str, str]:
    """Report digests pinned for the default seed (none for other seeds)."""
    return json.loads(DIGESTS.read_text()) if seed == DEFAULT_SEED and DIGESTS.is_file() else {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, pinned: Dict[str, str]) -> dict:
    """Run one workload for ``seconds`` and return its result record."""
    start = time.monotonic()
    jobs = workloads.jobs(workload, seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(jobs, Path(tmp), pinned, start + RUN_LIMIT_S)
        # compile bytecode and warm the file cache before anything is timed
        subprocess.run([sys.executable, str(LAUNCHER), "0", os.path.join(tmp, ".warm.json"), "0", "--",
                        "group", "--group", "Z/2"], cwd=tmp, env=runner.env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=False, timeout=JOB_TIMEOUT_S)
        untraced: List[List[JobRun]] = []
        traced: List[List[JobRun]] = []
        longest = 0.0
        while True:
            began = time.monotonic()
            runs = runner.run_pass(False)
            if runs is None:
                break
            untraced.append(runs)
            if trace:
                runs = runner.run_pass(True)
                if runs is None:
                    break
                traced.append(runs)
            # stop before a repetition that would overrun the measuring time
            longest = max(longest, time.monotonic() - began)
            if time.monotonic() + longest - start > seconds:
                break
    correct = runner.failed == 0 and bool(untraced) and (bool(traced) or not trace)
    seconds_info: Dict[str, float] = {}
    if trace:
        metrics = per_layer(untraced, traced) if traced and untraced else {n: 0.0 for n in tracing.metric_names()}
        units = {name: unit_of(name) for name in metrics}
    else:
        measured = end_to_end(untraced) if untraced else {}
        metrics = {name: measured.get(name, 0.0) for name, _ in END_TO_END}
        units = dict(END_TO_END)
        seconds_info = {name: measured[name] for name in ("wall_s", "cpu_s", "setup_s_uncorrected") if name in measured}
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "passes": len(traced) if trace else len(untraced),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "seconds": seconds_info,
        "digests": {job_run.name: job_run.digest for job_run in untraced[0]} if untraced else {},
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def write_digests() -> int:
    digests = {}
    for workload in workloads.WORKLOADS:
        result = run_workload(workload, DEFAULT_SEED, 0, False, {})
        if not result["correct"]:
            print(f"{workload}: not pinning, checks failed: {result['errors']}", file=sys.stderr)
            return 1
        digests.update(result["digests"])
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    # a terminated run still stops its job process and removes its inputs
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grplab" / "cli.py").is_file():
        print(f"grplab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), pinned_digests(args.seed))
        for error in result["errors"]:
            print(f"{workload}: FAILED {error}")
        print(f"{workload}: {result['passes']} passes, {result['attempted']} jobs attempted, "
              f"fail_frac = {result['failed'] / max(1, result['attempted']):.6g}")
        for name, metric in result["metrics"].items():
            print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
            key = name if len(names) == 1 else f"{workload}.{name}"
            summary["metrics"][key] = metric
        for name, value in result["seconds"].items():
            print(f"{workload}: {name} = {value:.6g} s (not drift-corrected)")
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
