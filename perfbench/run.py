"""acceptmax benchmark: one workload per process, seeded inputs, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0

Workloads (the reasons are also recorded in BENCHMARK.json):

* ``solve-large``: adc and generic instances at n = 3200, one per agent type
  plus mixed ones, each solved with ``cli.main(["solve", path])``. Parsing,
  validation, the adc-to-generic bridge and the tallies grow with n and do
  almost all the work.
* ``solve-small``: a stream of 3000 small adc, generic and amendment files
  (n = 3..9) run through ``solve``, ``solve --mechanism oracle``, ``amend``
  and ``amend --one-step``. Fixed per-call cost dominates.
* ``bounds-table``: the 36 rows of ``bounds all --n 3 --n 4 --n 5 --k 2 --mode
  exhaustive``, run as one ``bounds`` call per row with the CLI's default
  worker pool: exhaustive worst-case search.

A run generates the inputs, times set-up in fresh interpreters (``import
acceptmax.cli`` plus one warm-up solve) and, on ``solve-small``, cold
``python -m acceptmax.cli solve`` children, then hands the operations to one
runner child process (``drive.py``), which repeats whole passes over them
for ``--seconds``. Outputs are checked afterwards (``check.py``), outside
every timed phase.

Times are reported at a fixed reference pace. On a 2-vCPU share of a busy
machine the same Python code runs up to 1.7x slower for seconds to minutes
at a time, so raw times of two runs of the same code differ by more than
any bound worth setting. The runner therefore
times a fixed piece of standard-library work (``drive.reference``) next to
the operations, and every operation's time is scaled by REFERENCE_S over
the pace measured around it. The package never runs inside that work, so
a change to the package moves the scaled times as it moves the raw ones.
The raw pass time and the median pace are in the details line.

End-to-end metrics (``--trace 0``), each from the same run:

* ``setup_s``: median of twelve set-up probes, taken in three rounds: before
  the timed passes, after them and after the output checks; each probe is
  scaled by the pace measured in its own interpreter right after it.
* ``wall_s``: one pass over the operations, each at the lower quartile of
  its repetitions; ``ops_per_s``: operations per second at that pace.
* ``op_p50_ms``: median over operations of that lower quartile.
* ``peak_rss_mb``: peak resident set of the runner process or its workers.

The lower quartile keeps what the median keeps (it ignores a few slow
repetitions) while leaning towards repetitions the host did not disturb.
With ``--trace 1`` the metrics are per-layer self times from ``tracing.py``.
The last line of stdout is the result object; the line before it holds the
details: input properties, environment, tail latency with its percentile
and sample count, agents per second, the failed ratio, cold-start times,
solve-versus-oracle decision mismatches and what the tracer skipped.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import gen, tracing  # noqa: E402

WORKLOADS = ("solve-large", "solve-small", "bounds-table")
SETUP_SAMPLES = 4  # per probe round; three rounds spread over the run
COLD_SAMPLES = 36  # cold CLI children, solve-small only
IMPORTTIME_SAMPLES = 5
MODULES = ("cli", "serialize", "core", "adc", "amendment", "bounds")
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT = 60
# Reference pace: about what drive.reference measures on a quiet 2-vCPU Xeon
# VM with Python 3.11. Scaled times are seconds at this pace.
REFERENCE_S = 1e-4
WORK_DIR = ".perfbench_work"


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _timed_child(argv, root, timeout=CHILD_TIMEOUT):
    """Run a child to completion; kill it and wait for it on timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return time.perf_counter() - start, proc.returncode, out, err


def setup_probes(probe, root):
    """(seconds, pace) of import plus warm-up solve in SETUP_SAMPLES fresh interpreters.

    The pace is the reference work's time, measured in the same child just
    after the set-up (see ``drive.reference``).
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        _, code, out, err = _timed_child(probe, root)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err[-500:]}")
        seconds, pace = map(float, out.split())
        samples.append((seconds, pace))
    return samples


def build_ops(workload, items):
    """Operations of one pass: (argv, item index or bounds row, kind of check)."""
    if workload == "bounds-table":
        # One call per row of ``bounds all``: each (class, n) is timed alone.
        return [
            (gen.bounds_argv(c, [n]), (c, n), "bounds")
            for c in gen.BOUNDS_CLASSES
            for n in gen.BOUNDS_N
        ]
    ops = []
    for index, (_name, path, obj) in enumerate(items):
        if obj["kind"] == "amendment":
            ops.append((["amend", path], index, "amend"))
            ops.append((["amend", path, "--one-step"], index, "amend-one-step"))
        else:
            ops.append((["solve", path], index, "solve"))
            if workload == "solve-small":
                ops.append((["solve", path, "--mechanism", "oracle"], index, "oracle"))
    return ops


def environment(cli):
    workers = cli.build_parser().parse_args(gen.bounds_argv("all")).threads
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": sys.version.split()[0],
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "bounds_workers": workers,
        "valid": workers <= nproc,
    }


def _own_import_ms(stderr):
    """Per package module: cumulative import time minus nested package modules.

    Standard-library modules count toward the package module that imported
    them first, so a module that stops importing one shows the saving.
    """
    lines = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)$", line)
        if m:
            lines.append((len(m.group(2)), m.group(3), int(m.group(1))))
    own = {}
    for i, (depth, name, cumulative) in enumerate(lines):
        if not name.startswith("acceptmax."):
            continue
        nested, floor = 0, None
        for child_depth, child, child_cumulative in reversed(lines[:i]):
            if child_depth <= depth:
                break  # children precede their parent and are indented deeper
            if floor is None or child_depth <= floor:
                floor = None
                if child.split(".")[0] == "acceptmax":
                    nested, floor = nested + child_cumulative, child_depth
        own[name.split(".", 1)[1]] = (cumulative - nested) / 1000.0
    return own


def import_times(root):
    """Fastest own import time per package module, from ``-X importtime`` children."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_SAMPLES):
        _, code, _, err = _timed_child(
            [sys.executable, "-X", "importtime", "-c", "import acceptmax.cli"], root
        )
        if code != 0:
            raise RuntimeError(f"import failed: {err[-500:]}")
        for module, ms in _own_import_ms(err).items():
            if module in samples:
                samples[module].append(ms)
    missing = [m for m, v in samples.items() if not v]
    return {m: min(v) if v else 0.0 for m, v in samples.items()}, missing


def tail(latencies):
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            cut = statistics.quantiles(latencies, n=1000, method="inclusive")
            return {"percentile": p, "ms": cut[round(p * 10) - 1] * 1000, "samples": n}
    return {"percentile": None, "ms": None, "samples": n}


def check_outputs(ops, items, result, cold_runs, cache):
    """Count failed operations and solve/oracle decision mismatches."""
    from perfbench import check  # imports acceptmax from the checkout

    passes = len(result["pass_walls"])
    expect, decisions, failed, problems = {}, {}, 0, []
    for i, (argv, index, kind) in enumerate(ops):
        status, text = result["status"][i], result["outputs"][i]
        problem = None if status == 0 else f"exit {status}"
        if problem is None and kind in ("solve", "oracle"):
            if index not in expect:
                expect[index] = check.SolveExpectation(items[index][1], cache)
            problem, decision = check.check_solve(text, expect[index])
            decisions.setdefault(index, {})[kind] = decision
        elif problem is None and kind.startswith("amend"):
            problem = check.check_amend(text, items[index][2], kind == "amend-one-step")
        elif problem is None and kind == "bounds":
            problem = check.check_bounds(text, *index)
        if problem is not None:
            failed += passes
            problems.append(f"{' '.join(argv)}: {problem}")
        elif result["repeat_mismatch"][i]:
            failed += result["repeat_mismatch"][i]
            problems.append(f"{' '.join(argv)}: output changed between passes")
    if cold_runs:
        cold_expect = check.SolveExpectation(items[-1][1], cache)
    for _seconds, code, out, err in cold_runs:
        if code != 0:
            problem = f"exit {code}: {err[-300:]}"
        else:
            problem = check.check_solve(out, cold_expect)[0]
        if problem is not None:
            failed += 1
            problems.append(f"cold solve: {problem}")
    mismatch = sum(
        1 for d in decisions.values() if "oracle" in d and d["solve"] != d["oracle"]
    )
    return failed, mismatch, problems


def lower_quartile(values):
    """First quartile (inclusive method); a lone value is its own quartile."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def normalized_runs(result):
    """Per operation, its repetitions' seconds scaled to the reference pace.

    Each repetition is scaled by REFERENCE_S over the mean of the two pace
    measures that bracket it, so a host that runs everything 1.5x slower
    for a while leaves the figures where they were.
    """
    runs = [[] for _ in result["latencies"][0]]
    for lat, paces in zip(result["latencies"], result["references"]):
        for (begin, before), (end, after) in zip(paces, paces[1:]):
            scale = 2 * REFERENCE_S / (before + after)
            for i in range(begin, end):
                runs[i].append(lat[i] * scale)
    return runs


def layer_metrics(result, decision_mismatch, imports):
    """Per-layer figures of the fastest traced pass, at the reference pace.

    A pass's wall time here is the sum of its operations' times, scaled by
    REFERENCE_S over the pass's median pace, and the pass's self times are
    scaled alike, so they add up to it. The tracing overhead is the fastest
    traced pass minus the fastest untraced one, both measured so.
    """
    traced, untraced = [], []
    layers = iter(result["layers"])
    for lat, paces, is_traced in zip(
        result["latencies"], result["references"], result["pass_traced"]
    ):
        scale = REFERENCE_S / statistics.median(pace for _, pace in paces)
        if is_traced:
            traced.append((sum(lat) * scale, scale, next(layers)))
        else:
            untraced.append(sum(lat) * scale)
    wall, scale, fastest = min(traced, key=lambda entry: entry[0])
    metrics = {
        name: (fastest["self"].get(name, 0.0) * scale, "s") for name in tracing.TIME_METRICS
    }
    for name, unit in tracing.COUNT_METRICS.items():
        metrics[name] = (fastest["counts"].get(name, 0), unit)
    metrics["cli.decision_mismatch"] = (decision_mismatch, "count")
    for module, ms in imports.items():
        metrics[f"{module}.import_ms"] = (ms, "ms")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - min(untraced), "s")
    metrics["trace.unaccounted_s"] = (wall - fastest["roots"] * scale, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "acceptmax", "cli.py")):
        print("error: run from the root of an acceptmax checkout (no src/acceptmax)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import acceptmax.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src")):
        print(f"error: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    items = gen.write_inputs(args.workload, args.seed, os.path.join(work, "inputs"))
    cold = items[-1]
    ops = build_ops(args.workload, items[:-1])
    env = environment(cli)

    probe = [sys.executable, os.path.join(HERE, "drive.py"), "setup", root, cold[1]]
    _timed_child(probe, root)  # writes the bytecode caches; not timed
    setup = setup_probes(probe, root)
    cold_argv = [sys.executable, "-m", "acceptmax.cli", "solve", cold[1]]
    cold_count = COLD_SAMPLES if args.workload == "solve-small" else 0
    cold_runs = [_timed_child(cold_argv, root) for _ in range(cold_count)]

    plan = {
        "root": root,
        "trace": bool(args.trace),
        "warmup": cold[1],
        "ops": [argv for argv, _, _ in ops],
        "seconds": args.seconds,
        "min_passes": 2 if args.trace else 1,
        "result": os.path.join(work, "result.json"),
        "spans": os.path.join(work, "spans.jsonl"),
    }
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    try:
        # The runner starts a pass only while it is expected to end within --seconds.
        _, code, _, err = _timed_child(
            [sys.executable, os.path.join(HERE, "drive.py"), "run", plan_path], root,
            timeout=args.seconds * 2 + CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        print("error: runner timed out", file=sys.stderr)
        return 1
    if code != 0:
        print(f"error: runner failed: {err[-2000:]}", file=sys.stderr)
        return 1
    with open(plan["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    setup += setup_probes(probe, root)

    failed, mismatch, problems = check_outputs(
        ops, items, result, cold_runs, os.path.join(WORK_DIR, "oracle-cache")
    )
    setup += setup_probes(probe, root)
    if not env["valid"]:
        problems.append("bounds worker count exceeds nproc: run invalid")
        print("error: bounds worker count exceeds nproc", file=sys.stderr)
    passes = len(result["pass_walls"])
    attempted = len(ops) * passes + len(cold_runs)
    per_op = [lower_quartile(runs) for runs in normalized_runs(result)]
    wall = sum(per_op)
    raw_wall = sum(lower_quartile(runs) for runs in zip(*result["latencies"]))
    setup_s = statistics.median(seconds * REFERENCE_S / pace for seconds, pace in setup)
    agents = sum(len(items[index][2].get("agents", items[index][2].get("peaks_t", [])))
                 for _argv, index, kind in ops if kind != "bounds")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "inputs": gen.describe(items),
        "passes": passes,
        "ops_per_pass": len(ops),
        "op_tail_ms": tail([s for runs in normalized_runs(result) for s in runs]),
        "agents_per_s": agents / wall if agents else None,
        "raw_wall_s": raw_wall,
        "pace_us": statistics.median(
            pace for paces in result["references"] for _, pace in paces
        ) * 1e6,
        "failed_ratio": failed / attempted,
        "decision_mismatch": mismatch,
        "setup_samples_s": [seconds for seconds, _ in setup],
        "cold_start_ms": (
            statistics.median(run[0] for run in cold_runs) * 1000 if cold_runs else None
        ),
        "cold_samples_ms": [run[0] * 1000 for run in cold_runs],
        "maxrss_kb": result["maxrss_kb"],
        "problems": problems[:20],
    }
    if args.trace:
        imports, missing = import_times(root)
        metrics = layer_metrics(result, mismatch, imports)
        details["trace_skipped"] = result["trace_skipped"] + [
            f"{m}.import_ms" for m in missing
        ]
        details["spans"] = plan["spans"]
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (len(ops) / wall, "1/s"),
            "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
            "peak_rss_mb": (max(result["maxrss_kb"].values()) / 1024, "MB"),
        }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and env["valid"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
