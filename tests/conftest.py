"""Shared builders for randomized and exhaustive test suites."""

from __future__ import annotations

import itertools
import os
import random

import acceptmax
from acceptmax.adc import (
    OUTCOMES,
    PROPOSAL,
    AdcAgent,
    AdcInstance,
    majority_threshold,
    threshold_family,
)
from acceptmax.amendment import (
    amend_iterative,
    amend_one_step,
    check_universal_acceptance,
)
from acceptmax.bounds import CLASSES, class_options, shared_options
from acceptmax.core import (
    Decision,
    GenericInstance,
    RuleRef,
    SatisfyingSpec,
    substitute_absolute_disjunctivists,
)

def cli_child_env() -> dict:
    """The environment for a ``python -m acceptmax.cli`` child process.

    The child must import the package under test, also when pytest's
    ``pythonpath`` setting (not the environment) put it on sys.path.
    """
    package_root = os.path.dirname(os.path.dirname(acceptmax.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


OUTCOME_UNIVERSE = ("A", "B", "C")
TYPE_FLAGS = [
    (False, False),
    (True, False),
    (False, True),
    (True, True),
]


def random_generic_instance(rng: random.Random) -> GenericInstance:
    """A small random decision problem that always has a feasible decision."""
    outcomes = tuple(OUTCOME_UNIVERSE[: rng.randint(2, 3)])
    n_rules = rng.randint(1, 4)
    rules = tuple(
        RuleRef(f"r{i}", rng.choice(outcomes)) for i in range(n_rules)
    )
    while True:
        feasible_outcomes = frozenset(
            o for o in outcomes if rng.random() < 0.7
        ) or frozenset(outcomes)
        feasible_rule_ids = frozenset(
            r.id for r in rules if rng.random() < 0.7
        ) or frozenset(r.id for r in rules)
        if any(
            r.id in feasible_rule_ids and r.value_at_profile in feasible_outcomes
            for r in rules
        ):
            break
    agents = []
    for _ in range(rng.randint(1, 5)):
        conjunctive, ii = rng.choice(TYPE_FLAGS)
        agents.append(
            SatisfyingSpec(
                rule_ids=frozenset(r.id for r in rules if rng.random() < 0.4),
                outcomes=frozenset(o for o in outcomes if rng.random() < 0.4),
                conjunctive=conjunctive,
                implementation_indifferent=ii,
            )
        )
    return GenericInstance(
        outcomes=outcomes,
        rules=rules,
        feasible_outcomes=feasible_outcomes,
        feasible_rule_ids=feasible_rule_ids,
        agents=tuple(agents),
    )


def feasible_decisions(instance) -> list:
    """The instance's feasible decisions in ``feasible_rules`` order, each rule named by ``rule_ref``."""
    refs = map(instance.rule_ref, instance.feasible_rules)
    return [Decision(ref, ref.value_at_profile) for ref in refs]


def substituted(agents, instance: GenericInstance) -> list:
    """Each agent's substitute (R', Y') as an absolute-disjunctive spec, for ``core.accepts``."""
    pairs = substitute_absolute_disjunctivists(agents, instance.rule_value)
    return [SatisfyingSpec(rule_ids=rule_ids, outcomes=outcomes) for rule_ids, outcomes in pairs]


# ---------------------------------------------------------------------------
# A threshold-space reference for acceptance, written without ``acceptmax.core``:
# the library decides acceptance through ``core``, and these check it.


def reference_outcome(t: int, votes_p: int) -> str:
    """The supermajority rule: threshold ``t`` adopts the proposal when ``votes_p >= t``."""
    return "p" if votes_p >= t else "r"


def adc_accepts(agent: AdcAgent, t: int, outcome: str, votes_p: int) -> bool:
    """Whether the agent accepts the decision (threshold ``t``, ``outcome``)."""
    outcome_ok = outcome in agent.outcomes
    if agent.implementation_indifferent:
        rule_ok = any(reference_outcome(s, votes_p) == outcome for s in agent.thresholds)
    else:
        rule_ok = t in agent.thresholds
    if agent.conjunctive:
        return outcome_ok and rule_ok
    return outcome_ok or rule_ok


def adc_decisions(votes_p: int, feasible) -> list:
    """Feasible (threshold, outcome) pairs, sorted by (outcome, threshold)."""
    return sorted(
        ((t, reference_outcome(t, votes_p)) for t in feasible),
        key=lambda p: (p[1], p[0]),
    )


def majority_count(instance: AdcInstance) -> int:
    """Acceptance count of the fixed mechanism that always applies majority rule."""
    t = majority_threshold(instance.n)
    y = reference_outcome(t, instance.votes_p)
    return sum(1 for a in instance.agents if adc_accepts(a, t, y, instance.votes_p))


def random_adc_instance(rng: random.Random, n: int, kind: str) -> AdcInstance:
    """A random binary-choice instance with homogeneous agents of one kind."""
    votes = tuple(rng.choice(OUTCOMES) for _ in range(n))
    family = list(threshold_family(n))
    agents = []
    for _ in range(n):
        outcomes = frozenset(o for o in OUTCOMES if rng.random() < 0.5)
        if kind == "conseq":
            agents.append(AdcAgent(frozenset(), outcomes, False, True))
            continue
        conjunctive = kind.endswith("conj")
        ii = kind.startswith("ii")
        pool = range(1, n + 1) if ii else family
        thresholds = frozenset(t for t in pool if rng.random() < 0.4)
        agents.append(AdcAgent(thresholds, outcomes, conjunctive, ii))
    return AdcInstance(votes=votes, agents=tuple(agents))


def loosened(agent, rng: random.Random):
    """``agent`` with each set a random tuple, list, set or frozenset; sequences may repeat."""
    rules, outcomes, conjunctive, ii = agent

    def loose(values):
        container = rng.choice((tuple, list, set, frozenset))
        return container(sorted(values, key=repr) * rng.randint(1, 2))

    return type(agent)(loose(rules), loose(outcomes), conjunctive, ii)


def vote_representatives(n: int):
    """One vote vector per proposal-vote count (acceptance only sees the count)."""
    for votes_p in range(n + 1):
        yield (PROPOSAL,) * votes_p + ("r",) * (n - votes_p)


def homogeneous_suite(n: int, options_for):
    """All instances over representative votes and agent-option multisets.

    ``options_for(votes_p, vote)`` returns the per-agent options; agents with
    equal votes are exchangeable, so multisets per vote group suffice.
    """
    feasible = frozenset(threshold_family(n))
    for votes in vote_representatives(n):
        votes_p = sum(1 for v in votes if v == PROPOSAL)
        opts_p = options_for(votes_p, "p")
        opts_r = options_for(votes_p, "r")
        if (votes_p > 0 and not opts_p) or (votes_p < n and not opts_r):
            continue
        for group_p in itertools.combinations_with_replacement(opts_p, votes_p):
            for group_r in itertools.combinations_with_replacement(
                opts_r, n - votes_p
            ):
                yield AdcInstance(votes, group_p + group_r, feasible)


def enumerate_instances(class_id: str, n: int, k: int | None = None):
    """Deterministic stream of class instances, without the search's reductions.

    Vote vectors are full and agents are ordered; only implementation-
    indifferent threshold sets are reduced to their representatives.
    """
    listing = shared_options(CLASSES[class_id].agent_types, n)
    for votes in itertools.product(OUTCOMES, repeat=n):
        votes_p = sum(1 for v in votes if v == PROPOSAL)
        _, (options_p, options_r) = class_options(class_id, n, votes_p, k, listing)
        per_agent = [options_p if v == PROPOSAL else options_r for v in votes]
        if any(not opts for opts in per_agent):
            continue
        for agents in itertools.product(*per_agent):
            yield AdcInstance(votes=votes, agents=agents)


def amendment_guarantees_hold(inst, h: int) -> bool:
    """Acceptance criterion 5's conditions on one amendment instance with stable point ``h``.

    Every step of the iterative run is universally accepted, and the run ends
    at ``h`` from a status quo at or below it, else stays put. The one-step
    run finds ``h``; from below ``h`` every agent accepts it, and from at or
    below ``h`` it lands where the iterative run does.
    """
    sq = inst.status_quo
    trace = amend_iterative(inst)
    one = amend_one_step(inst)
    expected_final = h if sq <= h else sq
    return (
        check_universal_acceptance(trace, inst)
        and trace.final_outcome == expected_final
        and one.stable == h
        and (sq >= h or len(one.accepted_by) == inst.n)
        and (sq > h or one.outcome == trace.final_outcome == h)
    )
