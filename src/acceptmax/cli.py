"""Command line interface: solve instances, run amendments, verify bounds, generate instances.

Exit codes: 0 success, 1 verification mismatch, 2 input error.

``main`` can be called any number of times in one process. The argument
parser is built on the first call and reused after that: it holds no
per-call state.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import adc, amendment, bounds, core, serialize

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2


def cmd_solve(args) -> int:
    instance = serialize.load_instance(args.path)
    if isinstance(instance, amendment.AmendmentInstance):
        raise serialize.ParseError("solve expects an adc or generic instance")
    adc_n = instance.n if isinstance(instance, adc.AdcInstance) else None
    generic = adc.adc_to_generic(instance) if adc_n is not None else instance
    if args.mechanism == "oracle":
        payload = serialize.oracle_result_to_dict(
            core.oracle_max_accept(generic), generic.n, adc_n
        )
    else:
        payload = serialize.solve_report_to_dict(core.max_accept(generic), generic.n, adc_n)
    print(serialize.dumps(payload))
    return EXIT_OK


def cmd_amend(args) -> int:
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
    class_ids = sorted(bounds.CLASSES) if args.class_id == "all" else [args.class_id]
    for class_id in class_ids:
        if class_id not in bounds.CLASSES:
            raise core.ValidationError(f"unknown class {class_id!r}")
    all_match = True
    for class_id in class_ids:
        k = args.k if bounds.CLASSES[class_id].needs_k else None
        for report in bounds.verify_row(class_id, args.n, k):
            print(serialize.dumps(serialize.bounds_report_to_dict(report)))
            all_match = all_match and report.match
    return EXIT_OK if all_match else EXIT_MISMATCH


def _gen_adc(class_id, n, rng, k):
    feasible = frozenset(adc.threshold_family(n))
    for _attempt in range(10_000):
        votes = tuple(rng.choice(adc.OUTCOMES) for _ in range(n))
        votes_p = sum(1 for v in votes if v == adc.PROPOSAL)
        per_agent = [
            bounds.agent_options(class_id, n, votes_p, v, feasible, k) for v in votes
        ]
        if all(per_agent):
            agents = tuple(rng.choice(opts) for opts in per_agent)
            return adc.AdcInstance(votes, agents, feasible)
    raise core.ValidationError(f"class {class_id!r} unsatisfiable for n={n}")


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    n = args.n[0] if args.n else 4
    if args.class_id == "amendment":
        family = list(adc.threshold_family(n))
        for _ in range(args.count):
            instance = amendment.AmendmentInstance(
                peaks=tuple(rng.choice(family) for _ in range(n)),
                status_quo=rng.choice(family),
            )
            print(serialize.dumps(serialize.amendment_instance_to_dict(instance)))
        return EXIT_OK
    if args.class_id not in bounds.CLASSES:
        raise core.ValidationError(f"unknown class {args.class_id!r}")
    k = args.k if bounds.CLASSES[args.class_id].needs_k else None
    bounds.check_k(args.class_id, n, k)
    for _ in range(args.count):
        instance = _gen_adc(args.class_id, n, rng, k)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call."""
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
        help="auto: the one-pass tally; oracle: brute force plus the full tally",
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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (serialize.ParseError, core.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
