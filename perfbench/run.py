"""End-to-end benchmark of the anticlique CLI on seeded graph workloads.

    python3 perfbench/run.py --workload standard-run --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each job calls ``anticlique.cli.main``
in-process with ``--json`` on a DIMACS file written at set-up, and the next
job starts when the previous one returns.  A run repeats whole rounds of the
workload's job list until ``--seconds`` is used up, then checks every answer
against references computed apart from the row machinery (reference.py, in
a child process) and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (jobs_per_s,
job_ms_p50, peak_rss_mb, setup_s).  With ``--trace 1`` one round runs under
the tracer of tracer.py and the metrics are the per-layer ones.  Run it from
the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from check import GraphFacts, check  # noqa: E402
from workloads import WORKLOADS, argv, draw, jobs, wanted  # noqa: E402

SETUP_REPEATS = 11      # set-up is timed this many times; the median is reported
# cli.output_bytes leaves out the digits of the CLI's own wall time, so it repeats
_WALL_MS = re.compile(r'"wall_ms": [0-9.e+-]+')
REFERENCE_TIMEOUT_S = 150

# Machine-speed calibration.  On a shared machine the same code runs up to
# 1.4 times faster or slower for stretches of tens of seconds, in step with
# any other Python code, and process CPU time moves with wall time.  A fixed
# piece of the benchmark's own Python work (about 20 ms) runs right before
# every timed job and set-up and once after the last.  Each time is scaled by
# CAL_NOMINAL_S over the mean of the calibrations around it: the figures are
# those of a machine on which one calibration takes CAL_NOMINAL_S.
# The calibration allocates almost nothing, so it leaves peak_rss_mb alone.
CAL_NOMINAL_S = 0.020


def _calibration_graph() -> list[int]:
    rng = random.Random("calibration")
    v = 26
    edges = [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1) if rng.random() < 0.15]
    return reference._masks(v, edges)


_CAL_NBR = _calibration_graph()


def _count(mask: int) -> int:
    """Anticliques inside ``mask`` of the calibration graph, without memo."""
    if not mask:
        return 1
    low = mask & -mask
    rest = mask ^ low
    return _count(rest) + _count(rest & ~_CAL_NBR[low.bit_length() - 1])


def main(argv_: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="anticlique end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv_)

    src = ROOT / "src"
    if not (src / "anticlique" / "cli.py").is_file():
        print(f"error: no program source at {src / 'anticlique'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)   # graph paths in argv and output stay the same in every checkout
    sys.path.insert(0, "src")

    work = Path("perfbench", "work", f"{args.workload}-{args.seed}")
    work.mkdir(parents=True, exist_ok=True)
    plan = jobs(args.workload)
    graphs = {job.name: draw(job, args.workload, args.seed) for job in plan}

    setup_s, setup_cal = [], []
    for _ in range(SETUP_REPEATS):
        setup_cal.append(_calibrate())
        setup_s.append(_setup(graphs, work))
    setup_cal.append(_calibrate())
    gc.collect()   # the modules of earlier set-ups sit in reference cycles
    ac = sys.modules["anticlique"]
    refs = _references(plan, graphs, work)
    calls = [argv(job, str(work / f"{job.name}.col"), refs[job.name]) for job in plan]

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(ac)
        with tracer.installed():
            results = _loop(ac, calls, seconds=0, tracer=tracer)
        metrics = tracer.metrics()
    else:
        results = _loop(ac, calls, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw = [ms for ms, _k in results["ms"]]
        times = [ms * _scale(results["cal"], k) for ms, k in results["ms"]]
        setups = [t * _scale(setup_cal, k) for k, t in enumerate(setup_s)]
        metrics = {
            "jobs_per_s": (len(times) / (sum(times) / 1000), "1/s"),
            "job_ms_p50": (statistics.median(times), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        print(f"unscaled: jobs_per_s {len(raw) / (sum(raw) / 1000):.4f}, job_ms_p50 "
              f"{statistics.median(raw):.2f}, setup_s {statistics.median(setup_s):.5f}; "
              f"calibration {statistics.mean(results['cal']) * 1000:.2f} ms; "
              f"{results['rounds']} rounds", file=sys.stderr)

    problems = []
    for job, (job_argv, params), outputs in zip(plan, calls, results["outputs"]):
        g = graphs[job.name]
        facts = GraphFacts(g.v, g.edges, g.weights)
        for text in outputs:
            try:
                found = check(job.family.kind, params, facts, refs[job.name], json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable answer: {exc!r}"]
            problems += [f"{' '.join(job_argv)}: {p}" for p in found]
    for p in problems:
        print(f"wrong: {p}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _setup(graphs: dict, work: Path) -> float:
    """Import the program, then build and serialize every graph; seconds taken."""
    for name in [m for m in sys.modules if m == "anticlique" or m.startswith("anticlique.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    ac = importlib.import_module("anticlique")
    importlib.import_module("anticlique.cli")
    for name, g in graphs.items():
        text = ac.serialize_graph(ac.make_graph(g.v, g.edges), "dimacs")
        (work / f"{name}.col").write_text(text)
        if g.weights:
            (work / f"{name}.w").write_text(
                "".join(f"{y} {w}\n" for y, w in sorted(g.weights.items())))
    return time.perf_counter() - t0


def _calibrate() -> float:
    """Seconds taken by a fixed piece of the benchmark's own Python work."""
    t0 = time.perf_counter()
    _count((1 << len(_CAL_NBR)) - 1)
    return time.perf_counter() - t0


def _scale(cal: list[float], k: int) -> float:
    """Speed factor for the time measured between calibrations k and k + 1.

    It uses the eight calibrations nearest that time: a phase of the machine
    lasts tens of seconds, while one calibration jitters by several percent.
    """
    near = cal[max(0, k - 3):k + 5]
    return CAL_NOMINAL_S / (sum(near) / len(near))


def _references(plan: list, graphs: dict, work: Path) -> dict:
    """Reference answers per job, computed by reference.py in a child process."""
    requests = []
    for job in plan:
        g = graphs[job.name]
        req = {"v": g.v, "edges": g.edges, "want": [wanted(job.family)]}
        if g.weights:
            req["weights"] = g.weights
        if g.left:
            req["left"] = g.left
        requests.append(req)
    req_path, ans_path = work / "requests.json", work / "answers.json"
    req_path.write_text(json.dumps(requests))
    subprocess.run([sys.executable, str(HERE / "reference.py"), str(req_path), str(ans_path)],
                   check=True, timeout=REFERENCE_TIMEOUT_S)
    return {job.name: ans for job, ans in zip(plan, json.loads(ans_path.read_text()))}


def _loop(ac, calls, seconds: float, tracer=None) -> dict:
    """Run whole rounds of the job calls; with seconds = 0, exactly one round.

    A new round starts only if it is expected to end within ``seconds``
    (elapsed time plus one mean round), so a run never overshoots by a
    round and attempts the same job mix in every run.
    """
    ms: list[tuple[float, int]] = []   # (wall ms, index of the calibration before it)
    cal: list[float] = []
    outputs = [Counter() for _ in calls]
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        for i, (job_argv, _params) in enumerate(calls):
            attempted += 1
            if tracer is None:
                cal.append(_calibrate())
            elapsed_ms, code, text, n_warn = _run_job(ac, job_argv)
            if code != 0:
                failed += 1
                continue
            ms.append((elapsed_ms, len(cal) - 1))
            outputs[i][text] += 1
            if tracer is not None:
                tracer.output_bytes += len(_WALL_MS.sub('"wall_ms": 0', text).encode())
                tracer.stack_warnings += n_warn
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    if tracer is None:
        cal.append(_calibrate())
    return {"ms": ms, "cal": cal, "outputs": outputs, "attempted": attempted,
            "failed": failed, "rounds": rounds}


def _run_job(ac, job_argv: list[str]) -> tuple[float, int, str, int]:
    """One CLI call: (wall ms, exit code, stdout, StackBoundWarnings caught)."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always", ac.errors.StackBoundWarning)
        t0 = time.perf_counter_ns()
        try:
            code = ac.cli.main(job_argv)
        except SystemExit as exc:   # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crashing job is counted, the run goes on
            traceback.print_exc()
            code = 1
        elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
    n_warn = sum(issubclass(w.category, ac.errors.StackBoundWarning) for w in caught)
    return elapsed_ms, code, out.getvalue(), n_warn


if __name__ == "__main__":
    sys.exit(main())
