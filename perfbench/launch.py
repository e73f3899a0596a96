"""Run one grplab CLI job in a fresh process, as a child of ``run.py``.

    python3 launch.py SPAWN_T RESULT_PATH TRACE -- <grplab arguments>

``SPAWN_T`` is ``run.py``'s ``time.monotonic()`` just before it spawned this
process (the clock is system-wide, so the two processes can compare stamps).
The job imports numpy and runs a fixed calibration that does not touch
grplab, and runs it again after the job; interpreter start, that import and
the two calibrations make the job's reference time, by which ``run.py``
divides the job's own time (the calibrations are subtracted from the job).
Then the job imports grplab from the ``src`` directory next to this benchmark
and calls ``grplab.cli.main`` exactly as the ``grplab`` console script does,
so its standard output is the program's report.  With TRACE 0 the only
instrumentation is a timer around ``build_group``; with TRACE 1 the
``tracing.Recorder`` wraps every module.  RESULT_PATH receives a JSON record
with the reference and calibration times, the import-done stamp, the build
time, the peak resident set and, when traced, the spans and counters.
"""

from __future__ import annotations

import json
import os
import sys
import time


def calibrate(np) -> None:
    """Fixed work of the kinds grplab's jobs do: a scalar SplitMix64 loop on
    Python integers and small-array gathers, sorts and searches."""
    mask, state = (1 << 64) - 1, 0
    for _ in range(40000):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        state ^= z >> 31
    keys = np.sort(np.arange(1 << 14, dtype=np.int64) * 2654435761 % 1000003)
    probes = keys[::7].copy()
    for _ in range(150):
        probes = keys[np.searchsorted(keys, probes) % len(keys)]


def _peak_rss_kb() -> int:
    """This process's own resident-set high-water mark.  ``wait4``'s
    ``ru_maxrss`` is no substitute: on Linux it carries over the spawning
    process's size through vfork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    spawn_t, result_path, trace = float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: launch.py SPAWN_T RESULT_PATH TRACE -- ARGS...")
    src = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    sys.path.insert(0, src)
    import numpy

    calibration_start = time.monotonic()
    calibration_cpu = time.process_time()
    calibrate(numpy)
    reference_done = time.monotonic()
    reference_cpu = time.process_time()
    import grplab
    import grplab.cli

    import_done = time.monotonic()
    if not os.path.abspath(grplab.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported grplab from {grplab.__file__}, not from {src}")

    import tracing

    modules = {name: module for name, module in sys.modules.items() if name == "grplab" or name.startswith("grplab.")}
    recorder = tracing.Recorder()
    if trace:
        recorder.install_tracing(modules)
    else:
        recorder.install_build_timer(modules)
    code = 1
    try:
        code = modules["grplab.cli"].main(sys.argv[5:])
    finally:
        sys.stdout.flush()
        peak_rss_kb = _peak_rss_kb()
        after_start, after_cpu = time.monotonic(), time.process_time()
        calibrate(numpy)
        after_s, after_cpu = time.monotonic() - after_start, time.process_time() - after_cpu
        record = {
            # startup plus both calibrations, in wall and in CPU time
            "reference_s": reference_done - spawn_t + after_s,
            "reference_cpu": reference_cpu + after_cpu,
            "calibration_s": reference_done - calibration_start + after_s,
            "calibration_cpu": reference_cpu - calibration_cpu + after_cpu,
            "import_done": import_done,
            "build_s": recorder.build_s,
            "peak_rss_kb": peak_rss_kb,
        }
        if trace:
            record["trace"] = recorder.to_json()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
