"""Benchmark child processes: the workload runner and the set-up probe.

    python perfbench/drive.py setup ROOT WARMUP_FILE
        Prints the seconds taken by ``import acceptmax.cli`` plus one warm-up
        ``solve`` of WARMUP_FILE, timed inside a fresh interpreter, and the
        host's pace measured right after it.

    python perfbench/drive.py run PLAN_JSON
        Imports the package (installing trace wrappers first when the plan
        asks for tracing), runs one warm-up operation, then repeats whole
        passes over the plan's operations for ``seconds``: a pass starts
        only while it is expected to end in time. Every operation is an
        in-process ``cli.main(argv)`` call. The host's pace (see
        :func:`reference`) is measured before the first operation, then
        before each operation that starts at least REFERENCE_EVERY seconds
        after the last measure, and after the last operation, so every
        operation lies between two measures taken close to it. Writes the
        latencies, paces, the first pass's outputs, repeat mismatches,
        resource usage and (traced) per-pass layer totals to the plan's
        ``result`` path. All load comes from this one process, apart from
        the worker pool that ``bounds`` starts itself.
"""

import io
import sys
import time


REFERENCE_BURST = 5  # reference timings per measure of the host's pace
REFERENCE_EVERY = 0.02  # seconds of operations between two measures


def _import_path(root):
    sys.path.insert(0, root + "/src")


def setup_probe(root, warmup_file):
    _import_path(root)
    start = time.perf_counter()
    import acceptmax.cli

    saved, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = acceptmax.cli.main(["solve", warmup_file])
    finally:
        sys.stdout = saved
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"warm-up solve exited {code}")
    pace = reference()
    paces = sorted(pace() for _ in range(REFERENCE_BURST))
    print(repr(elapsed), repr(paces[REFERENCE_BURST // 2]))


def _call(cli, argv):
    """Run one CLI call; return (seconds, exit code or error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        status = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        status = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    if status != 0 and err.getvalue():
        status = f"{status}: {err.getvalue().strip()[-300:]}"
    return elapsed, status, out.getvalue()


def reference():
    """Return a function that measures the host's pace, in seconds.

    It times REFERENCE_BURST runs of fixed work and returns the median.
    The work is of the kinds the package does (parse JSON, build sets and
    dicts, sum fractions) but uses only the standard library, so a change
    to the package cannot move it: only the host's speed does.
    """
    import json
    from fractions import Fraction

    doc = json.dumps(
        [{"type": f"t{i % 7}", "R": list(range(i % 5)), "Y": ["p", "r"][: i % 3]}
         for i in range(60)]
    )

    def work():
        start = time.perf_counter()
        agents = json.loads(doc)
        rules, tally = set(), {}
        for i, agent in enumerate(agents):
            rules.update(agent["R"])
            tally[agent["type"]] = tally.get(agent["type"], 0) + i % 3
        total = sum((Fraction(i, i + 1) for i in range(1, 24)), Fraction(0))
        if not rules or not tally or total <= 0:
            raise AssertionError("reference work computed nothing")
        return time.perf_counter() - start

    def pace():
        return sorted(work() for _ in range(REFERENCE_BURST))[REFERENCE_BURST // 2]

    return pace


def run(plan_path):
    # Imported here, not at the top, so the set-up probe times their import.
    import json
    import resource

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    _import_path(plan["root"])

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, plan["root"])
        from perfbench import tracing

        tracer = tracing.Tracer()
        cli = tracing.install(tracer)
    else:
        import acceptmax.cli as cli

    warm = _call(cli, ["solve", plan["warmup"]])
    if warm[1] != 0:
        raise SystemExit(f"warm-up operation failed: {warm[1]}")

    pace = reference()
    ops = plan["ops"]
    first = [None] * len(ops)
    status = [0] * len(ops)
    repeat_mismatch = [0] * len(ops)
    latencies, references, pass_walls, pass_traced, layers = [], [], [], [], []
    spans_out = []
    deadline = plan["seconds"]
    elapsed = 0.0
    p = 0
    while p < plan["min_passes"] or elapsed + pass_walls[-1] <= deadline:
        traced = tracer is not None and p % 2 == 0
        if tracer is not None:
            tracer.spans, tracer.stack, tracer.counts = [], [], {}
            tracer.recording = traced
        lat, paces = [], []
        start = time.perf_counter()
        measured = start - REFERENCE_EVERY
        for i, argv in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            if time.perf_counter() - measured >= REFERENCE_EVERY:
                paces.append((i, pace()))
                measured = time.perf_counter()
            seconds, code, out = _call(cli, argv)
            lat.append(seconds)
            if code != 0 and status[i] == 0:
                status[i] = code
            if first[i] is None:
                first[i] = out
            elif out != first[i]:
                repeat_mismatch[i] += 1
        paces.append((len(ops), pace()))
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        elapsed += wall
        latencies.append(lat)
        references.append(paces)
        pass_walls.append(wall)
        pass_traced.append(traced)
        if traced:
            totals, roots = tracing.self_times(tracer.spans)
            layers.append(
                {"wall": wall, "self": totals, "roots": roots, "counts": tracer.counts}
            )
            spans_out.append((p, tracer.spans))
        p += 1

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "latencies": latencies,
        "references": references,
        "pass_walls": pass_walls,
        "pass_traced": pass_traced,
        "outputs": first,
        "status": status,
        "repeat_mismatch": repeat_mismatch,
        "maxrss_kb": {"self": own, "children": kids},
        "layers": layers,
        "trace_skipped": tracer.skipped if tracer else [],
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            for pass_index, spans in spans_out:
                for span in spans:
                    fh.write(json.dumps([pass_index] + span) + "\n")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup_probe(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "run":
        run(sys.argv[2])
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
