"""entdist benchmark: whole CLI commands, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (workloads.py), then starts
fresh entdist CLI processes one at a time (closed loop, one client, no
other load) for about S seconds and checks every process's output files.
With --trace 0 it also runs the fixed reference process of reference.py
before the first of them and after each, to gauge the host's speed.
Before timing it runs ``repro table1|table2|fig3|figS1`` once, untimed, as
smoke checks of the documented repro state.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed / attempted`` is printed above it as ``failed_frac``.

--trace 0 reports the end-to-end metrics, each the median over the run's
processes:

  wall_s         spawn to exit of one process: what the user waits for
  setup_s        spawn until ``entdist.cli.main`` is entered: interpreter
                 start and ``import entdist.cli``
  queries_per_s  logical distance estimates (fixed by the workload, not by
                 how many the code makes) per second inside ``main``
  peak_rss_mb    the process's maximum resident set size

The three timed metrics are given at the reference speed; see
``at_reference_speed``.  --trace 1 alternates untraced and traced
processes, runs no reference, and reports the per-layer metrics of
tracing.py as medians over the traced processes, with
``trace.overhead_s`` = median traced minus median untraced wall time.

Each run also writes .bench_run/results/<workload>-seed<N>-trace<T>.json
with every sample, the CPU model, nproc, the Python and numpy versions,
the git revision and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import SMOKE_CHECKS, WORKLOADS, Inputs, Workload, cluster_rounds, output_bytes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.py"
RUN_DIR = ROOT / ".bench_run"

# the reference process's wall time on a quiet host (one core of a 2-core
# Xeon): the host speed that the timed metrics are given at
REFERENCE_S = 0.30
MIN_PASSES = 3
# a run must end within 180 s: start no process after RUN_BUDGET_S and
# kill any process still running at DEADLINE_S
RUN_BUDGET_S = 120.0
DEADLINE_S = 170.0
SMOKE_TIMEOUT_S = 20.0


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    info = {
        "cpu_model": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=True, timeout=30).stdout.strip()
        try:
            info["git_sha"] = git("rev-parse", "HEAD")
            info["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def run_timed(cmd: list[str], workdir: Path, tag: str, timeout: float) -> dict:
    """Start one process, wait for it, and return its timings and rusage.

    The process writes a timing JSON file with the monotonic-clock times at
    which its work began and ended (``main_start``, ``main_end``).
    """
    timing_path = workdir / f"timing_{tag}.json"
    stderr_path = workdir / f"stderr_{tag}.txt"
    with open(workdir / "stdout.txt", "ab") as stdout, open(stderr_path, "wb") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *cmd[:1], str(timing_path), *cmd[1:]],
                                stdout=stdout, stderr=stderr, cwd=workdir)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    sample = {"exit": code, "wall_s": end - start, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "errors": []}
    if code != 0 or not timing_path.exists():
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        sample["errors"].append(f"exit {code}: {tail.strip()}")
        return sample
    timing = json.loads(timing_path.read_text(encoding="utf-8"))
    sample["setup_s"] = timing["main_start"] - start
    sample["main_s"] = timing["main_end"] - timing["main_start"]
    sample["counters"] = timing.get("counters", {})
    return sample


def run_process(argv: list[str], workdir: Path, tag: str, traced: bool,
                timeout: float = DEADLINE_S) -> dict:
    """Run one entdist CLI process through child.py."""
    out = workdir / f"out_{tag}"
    spans_path = workdir / f"spans_{tag}.jsonl" if traced else None
    sample = run_timed([str(CHILD), str(spans_path or "-"), *argv, "--out", str(out)],
                       workdir, tag, timeout)
    sample.update(out=out, traced=traced, spans=spans_path)
    return sample


def run_reference(workdir: Path, tag: str, timeout: float) -> float:
    """The reference process's wall time; raise if it fails, for then nothing can be scaled."""
    sample = run_timed([str(REFERENCE)], workdir, f"ref_{tag}", timeout)
    if sample["errors"]:
        raise RuntimeError(f"reference process failed: {sample['errors'][0]}")
    return sample["wall_s"]


def smoke_checks(workdir: Path) -> dict[str, list[str]]:
    results = {}
    for target, check in SMOKE_CHECKS.items():
        sample = run_process(["repro", target], workdir, f"smoke_{target}", traced=False,
                             timeout=SMOKE_TIMEOUT_S)
        errors = sample["errors"]
        if not errors:
            try:
                errors = check(sample["out"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"{target}: unreadable output: {exc!r}"]
        results[target] = errors
        shutil.rmtree(sample["out"], ignore_errors=True)
    return results


def measure(workload: Workload, inputs: Inputs, sample: dict) -> None:
    """Check the outputs of a finished process and add its derived numbers."""
    out = sample["out"]
    if not sample["errors"]:
        try:
            sample["errors"] = workload.check(out, inputs)
            sample["bytes"] = output_bytes(out)
            sample["rounds"] = cluster_rounds(out) if inputs.logical_queries is None else 0
            sample["logical_queries"] = workload.logical_queries(inputs, out)
            sample["queries_per_s"] = sample["logical_queries"] / sample["main_s"]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            sample["errors"] = [f"unreadable output: {exc!r}"]
    if sample["traced"] and "queries_per_s" in sample:
        sample["layers"] = tracing.layer_metrics(
            tracing.summarize(sample["spans"]), sample)
    if sample["spans"] is not None:
        sample["spans"].unlink(missing_ok=True)
    shutil.rmtree(out, ignore_errors=True)


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def at_reference_speed(sample: dict, before: float, after: float) -> dict[str, float]:
    """A process's timed metrics as they would read on the quiet host.

    Other tenants of the host change its speed by up to 2x, in bursts of
    seconds up to whole runs, and the process's CPU time slows with its wall
    time.  So each time is multiplied by REFERENCE_S over the mean wall time
    of the reference processes run just before and after it.  The reference
    runs no entdist code: a change to the program moves these numbers, a
    change of host speed mostly does not.  Over five seeds of fig2_plot on a
    busy host, run medians (IQR / median) of raw wall_s, setup_s and
    queries_per_s spread by 0.09, 0.13 and 0.10, scaled ones by about 0.05.
    Scaling each part by the same part of the reference did worse: its work
    loop is too short to track the host.
    """
    scale = 2 * REFERENCE_S / (before + after)
    return {"wall_s": sample["wall_s"] * scale,
            "setup_s": sample["setup_s"] * scale,
            "queries_per_s": sample["logical_queries"] / (sample["main_s"] * scale)}


def tally(smoke: dict[str, list[str]], samples: list[dict]) -> tuple[int, int]:
    """(attempted, failed): each smoke check and each process counts once."""
    attempted = len(smoke) + len(samples)
    failed = sum(bool(e) for e in smoke.values()) + sum(bool(s["errors"]) for s in samples)
    return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "entdist" / "cli.py").is_file():
        print(f"error: no entdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    traced_modes = (False, True) if args.trace else (False,)

    began = time.monotonic()
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        smoke = smoke_checks(workdir)
        inputs = workload.prepare(args.seed, workdir)
        samples: list[dict] = []
        timed_start = time.monotonic()
        passes = 0

        def remaining() -> float:
            return DEADLINE_S - (time.monotonic() - began)

        reference = None if args.trace else run_reference(workdir, "first", remaining())
        first_reference = reference
        while True:
            for traced in traced_modes:
                tag = str(len(samples))
                sample = run_process(inputs.argv, workdir, tag, traced, remaining())
                measure(workload, inputs, sample)
                if reference is not None:
                    before, reference = reference, run_reference(workdir, tag, remaining())
                    if "queries_per_s" in sample:
                        sample["scaled"] = at_reference_speed(sample, before, reference)
                    sample["reference_wall_s"] = reference
                samples.append(sample)
            passes += 1
            now = time.monotonic()
            per_pass = (now - timed_start) / passes
            if passes >= MIN_PASSES and now - timed_start + per_pass > args.seconds:
                break
            if now - began + per_pass > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for errors in smoke.values():
        for error in errors:
            print(f"smoke check failed: {error}", file=sys.stderr)
    for i, s in enumerate(samples):
        for error in s["errors"][:5]:
            print(f"process {i} failed: {error}", file=sys.stderr)
    attempted, failed = tally(smoke, samples)
    # a process whose output failed its check still counts for timing
    measured = [s for s in samples if "queries_per_s" in s]
    untraced = [s for s in measured if not s["traced"]]
    traced = [s for s in measured if s["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no process of the run completed", file=sys.stderr)
        return 1

    if args.trace:
        values = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    else:
        values = {name: statistics.median(s["scaled"][name] for s in untraced)
                  for name in untraced[0]["scaled"]}
        values["peak_rss_mb"] = median_of(untraced, "peak_rss_mb")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}

    result_file = RUN_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.parent.mkdir(exist_ok=True)
    result_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "smoke": smoke,
        "reference_s": REFERENCE_S,
        "first_reference_wall_s": first_reference,
        "samples": [{k: v for k, v in s.items() if k not in ("out", "spans")} for s in samples],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
    }, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(samples)} processes in "
          f"{time.monotonic() - timed_start:.1f} s; results in {result_file.relative_to(ROOT)}")
    group, key = (traced, "layers") if args.trace else (untraced, "scaled")
    for name, metric in metrics.items():
        line = f"  {name:30s} {metric['value']:<12.6g} {metric['unit']:6s}"
        if name in group[0][key]:
            per_process = sorted(s[key][name] for s in group)
            line += (f" median of {len(per_process)},"
                     f" range {per_process[0]:.4g} .. {per_process[-1]:.4g}")
            if not args.trace:
                line += f"; unscaled median {median_of(group, name):.4g}"
        print(line)
    if args.trace:
        print(f"  {'untraced wall_s':30s} {median_of(untraced, 'wall_s'):<12.6g} {'s':6s}"
              f" median of {len(untraced)}")
    print(f"  {'failed_frac':30s} {failed / attempted:<12.6g} {'':6s} {failed} of {attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
