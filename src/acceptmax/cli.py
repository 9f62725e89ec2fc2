"""Command line interface: solve instances, run amendments, verify bounds, generate instances.

Exit codes: 0 success, 1 verification mismatch, 2 input error, 141 stdout
closed by its reader (128 + SIGPIPE, as in ``acceptmax bounds all ... | head -1``).

``main`` can be called any number of times in one process. The argument
parser is built on the first call and reused after that: it holds no
per-call state. Each call parses its arguments once: ``parse_command_line``
hands an argv that starts with a command straight to that command's
subparser, and runs the whole parser only where the result could differ, so
every namespace, usage text, error and exit code is the whole parser's.

Importing this module loads only ``core``, ``adc`` and ``serialize``, which
``solve`` needs. ``amend`` loads ``amendment``, ``bounds`` loads ``bounds``,
and ``gen`` loads both and ``random``, each on its first call.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from . import adc, core, serialize

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_PIPE = 141


def cmd_solve(args) -> int:
    """Solve one instance file, with the cyclic garbage collector paused.

    ``auto`` tallies the loaded instance as it is; only ``oracle`` bridges an
    adc instance to the generic model.

    Loading and tallying a large electorate allocates several objects per
    agent, and each allocation threshold crossed makes the collector rescan
    every live agent. The pause is safe because this path creates no
    reference cycles: after a warm call, ``gc.collect()`` finds nothing to
    free (``tests/test_cli.py`` checks this). The collector is re-enabled
    afterwards only if it was enabled before, also when the input is
    rejected. ``bounds`` is not paused: pausing it raised peak memory while
    its search left thousands of cyclic objects per run. The search now
    leaves none (``tests/test_bounds.py`` checks this), and a pause there
    has not been measured since.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        instance = serialize.load_instance(args.path)
        if not isinstance(instance, (adc.AdcInstance, core.GenericInstance)):
            raise serialize.ParseError("solve expects an adc or generic instance")
        if args.mechanism == "oracle":
            is_adc = isinstance(instance, adc.AdcInstance)
            generic = adc.adc_to_generic(instance) if is_adc else instance
            payload = serialize.oracle_result_to_dict(core.oracle_max_accept(generic), instance)
        else:
            payload = serialize.solve_report_to_dict(core.max_accept(instance), instance)
        print(serialize.dumps(payload))
    finally:
        if was_enabled:
            gc.enable()
    return EXIT_OK


def cmd_amend(args) -> int:
    from . import amendment

    instance = serialize.load_instance(args.path)
    if not isinstance(instance, amendment.AmendmentInstance):
        raise serialize.ParseError("amend expects an amendment instance")
    if args.one_step:
        payload = serialize.one_step_to_dict(amendment.amend_one_step(instance), instance)
    else:
        payload = serialize.trace_to_dict(amendment.amend_iterative(instance), instance)
    print(serialize.dumps(payload))
    return EXIT_OK


def cmd_bounds(args) -> int:
    from . import bounds

    class_ids = sorted(bounds.CLASSES) if args.class_id == "all" else [args.class_id]
    for class_id in class_ids:
        for n in args.n:
            bounds.check_class(class_id, n, args.k)
    all_match = True
    for class_id in class_ids:
        for n in args.n:
            report = bounds.worst_case_rate(class_id, n, args.k)
            print(serialize.dumps(serialize.bounds_report_to_dict(report)))
            all_match = all_match and report.match
    return EXIT_OK if all_match else EXIT_MISMATCH


def _gen_adc(class_id, n, rng, k, count):
    """``count`` random instances of the class at ``n``, drawn from its full option listing."""
    from . import bounds

    if not count:  # the full listing grows as 2 ** (n / 2): build none for no instance
        return
    # The options no vote count changes are listed once for all ``count``,
    # and each vote count's options once, when it first comes up. An
    # agent's options depend only on its vote.
    listing = bounds.shared_options(bounds.CLASSES[class_id].agent_types, n)
    options_at = {}
    for _ in range(count):
        for _attempt in range(10_000):
            votes = tuple(rng.choice(adc.OUTCOMES) for _ in range(n))
            votes_p = votes.count(adc.PROPOSAL)
            if votes_p not in options_at:
                _, sides = bounds.class_options(class_id, n, votes_p, k, listing)
                options_at[votes_p] = dict(zip((adc.PROPOSAL, adc.STATUS_QUO), sides))
            options = options_at[votes_p]
            if all(options[v] for v in set(votes)):
                yield adc.AdcInstance(votes, tuple(rng.choice(options[v]) for v in votes))
                break
        else:
            raise core.ValidationError(f"class {class_id!r} unsatisfiable for n={n}")


def cmd_gen(args) -> int:
    """``--count`` instances for each ``--n`` in the order given (n = 4 without one)."""
    import random

    from . import amendment, bounds

    rng = random.Random(args.seed)
    sizes = args.n or [4]
    if args.class_id == "amendment":
        for n in sizes:
            family = list(adc.threshold_family(n))
            for _ in range(args.count):
                instance = amendment.AmendmentInstance(
                    peaks=tuple(rng.choice(family) for _ in range(n)),
                    status_quo=rng.choice(family),
                )
                print(serialize.dumps(serialize.amendment_instance_to_dict(instance)))
        return EXIT_OK
    for n in sizes:
        bounds.check_class(args.class_id, n, args.k)
        if not bounds.has_instance(args.class_id, n, args.k):
            raise core.ValidationError(f"class {args.class_id!r} unsatisfiable for n={n}")
    for n in sizes:
        for instance in _gen_adc(args.class_id, n, rng, args.k, args.count):
            print(serialize.dumps(serialize.adc_instance_to_dict(instance)))
    return EXIT_OK


def _int_at_least(text: str, minimum: int, what: str) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}, got {value}")
    return value


def electorate_size(text: str) -> int:
    """argparse type for ``--n``: worst cases and threshold families need n >= 2."""
    return _int_at_least(text, 2, "electorate size")


def instance_count(text: str) -> int:
    """argparse type for ``--count``: zero instances is valid, a negative count is not."""
    return _int_at_least(text, 0, "instance count")


def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple:
    """The whole parser and its command name -> subparser map, built together once."""
    parser = argparse.ArgumentParser(
        prog="acceptmax",
        description="Acceptance-maximizing collective decisions over rules and outcomes.",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="ignored: exhaustive sweeps run in the calling process "
        "(kept because perfbench/run.py reads it)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("path")
    p_solve.add_argument(
        "--mechanism", choices=["auto", "oracle"], default="auto",
        help="auto: the one-pass tally; oracle: brute force plus the full tally, "
        "O(agents x feasible decisions), only for cross-checking auto",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_amend = sub.add_parser("amend", help="run the amendment process on an instance file")
    p_amend.add_argument("path")
    p_amend.add_argument("--one-step", action="store_true")
    p_amend.set_defaults(func=cmd_amend)

    p_bounds = sub.add_parser("bounds", help="verify worst-case acceptance rates")
    p_bounds.add_argument("class_id", metavar="class")
    p_bounds.add_argument("--n", type=electorate_size, action="append", required=True)
    p_bounds.add_argument(
        "--mode", choices=["auto", "exhaustive"], default="auto",
        help="ignored: every size runs the one exact search "
        "(kept because perfbench/gen.py passes it)",
    )
    p_bounds.add_argument("--k", type=int, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_gen = sub.add_parser("gen", help="generate seeded random instances")
    p_gen.add_argument("class_id", metavar="class")
    p_gen.add_argument("--n", type=electorate_size, action="append")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=instance_count, default=1)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.set_defaults(func=cmd_gen)

    return parser, sub.choices


def parse_command_line(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one parse when ``argv`` starts with a command.

    The whole parser hands everything after the command to that command's
    subparser in a nested parse. Here the subparser parses it directly, into
    a namespace that already holds what the top level would have set. The
    whole parser runs instead, and so prints the same errors, when there is
    no command first (no arguments, a top-level option, an unknown command),
    when the subparser leaves arguments over, or when an argument holds
    ``--=``: the top level rejects one that starts so, as an abbreviation of
    both its long options, before any subparser runs.
    """
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    # NUL is not in "--=", so a match lies inside one argument.
    if command is not None and "--=" not in "\0".join(argv):
        namespace = argparse.Namespace(threads=parser.get_default("threads"), command=argv[0])
        args, rest = command.parse_known_args(argv[1:], namespace)
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_command_line(argv)
    try:
        return args.func(args)
    except (serialize.ParseError, core.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader has gone. Later writes, and the interpreter's final
        # flush of what is still buffered, go to the null device instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
