"""Binary status-quo-vs-proposal decisions under supermajority rule families.

Outcomes are ``"r"`` (keep the status quo) and ``"p"`` (adopt the proposal).
A supermajority rule with integer threshold ``t`` selects ``p`` exactly when
at least ``t`` agents vote for it. The feasible rule family for ``n`` agents
runs from simple majority, ``t = n // 2 + 1``, to unanimity, ``t = n``;
implementation-indifferent agents may additionally reference sub-majority
thresholds down to ``t = 1``, which can never be the implemented rule but
still matter for which outcomes they would have found acceptable.

Thresholds are kept as integers throughout so every comparison is exact;
the conventional fractional threshold of ``t`` is ``(t - 1) / n``.
``threshold_outcomes`` is the one statement of the supermajority rule, and
an instance's feasible thresholds are ordered by ``core.tie_break_order``.
Both ``core.max_accept`` and the oracle ``core.oracle_max_accept`` read an
``AdcInstance`` as it is, a threshold standing for a rule. ``adc_to_generic``
restates an instance in the generic model only for cross-checks: the
benchmark's solve check, acceptance criterion 1 and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .core import (
    FrozenValue,
    GenericInstance,
    RuleRef,
    SatisfyingSpec,
    ValidationError,
    freeze_agents,
    read_set,
    tie_break_order,
)

STATUS_QUO = "r"
PROPOSAL = "p"
OUTCOMES = (PROPOSAL, STATUS_QUO)


def majority_threshold(n: int) -> int:
    return n // 2 + 1


def threshold_family(n: int) -> range:
    """The feasible supermajority thresholds: majority up to unanimity."""
    return range(majority_threshold(n), n + 1)


def delta_of(t: int, n: int) -> Fraction:
    """Display value of a threshold as a fraction of the electorate."""
    return Fraction(t - 1, n)


def threshold_of(delta, n: int) -> int:
    """Integer threshold of a fractional one: smallest winning vote count."""
    d = Fraction(delta)
    if not 0 <= d < 1:
        raise ValidationError(f"fractional threshold {d} outside [0, 1)")
    return int(d * n) + 1


def rule_id(t: int) -> str:
    """The bridged rule id ``t<t>`` of threshold ``t``."""
    return f"t{t}"


def rule_threshold(rid: str) -> int:
    """The threshold ``t`` of a bridged rule id ``t<t>``: the inverse of ``rule_id``."""
    return int(rid[1:])


class AdcAgent(NamedTuple):
    """One agent's acceptable thresholds and outcomes plus type flags.

    A ``NamedTuple`` with ``core.SatisfyingSpec``'s layout, thresholds in
    place of rule ids, so ``core.substitute_absolute_disjunctivists`` reads a
    population of either: see ``acceptmax.core``.
    """

    thresholds: frozenset
    outcomes: frozenset
    conjunctive: bool = False
    implementation_indifferent: bool = False


class AdcInstance(FrozenValue):
    """A binary-choice problem: the votes, the feasible thresholds, the agents."""

    _fields = ("votes", "agents", "feasible_thresholds")
    outcomes = (STATUS_QUO, PROPOSAL)  # not a field: the universe in tie-break order

    def __init__(self, votes: tuple, agents: tuple, feasible_thresholds: frozenset | None = None):
        self.__dict__.update(votes=tuple(votes), agents=tuple(agents))
        n = self.__dict__["n"] = len(self.votes)
        if n == 0:
            raise ValidationError("instance has no votes")
        outcome_universe = frozenset(OUTCOMES)
        try:
            known = outcome_universe.issuperset(self.votes)
        except TypeError:  # an unhashable vote is no outcome either
            known = False
        if not known:
            raise ValidationError("votes must be 'r' or 'p'")
        family = frozenset(threshold_family(n))
        # None means the full family, which needs no check. A caller's set is
        # checked per element before freezing, since an int would absorb an
        # equal float or bool; any other iterable is read once, into a tuple.
        feasible = feasible_thresholds
        if feasible is None:
            feasible = family
        else:
            if type(feasible) is not frozenset:
                try:
                    feasible = tuple(feasible)
                except TypeError:  # not iterable: no family subset either
                    feasible = ()
            if not feasible or any(type(t) is not int or t not in family for t in feasible):
                raise ValidationError("feasible thresholds must be a nonempty family subset")
        object.__setattr__(self, "feasible_thresholds", frozenset(feasible))
        if len(self.agents) != n:
            raise ValidationError("agent count must match vote count")
        # Types are checked per element: ``2.0`` and ``True`` equal and hash
        # like the ints ``2`` and ``1``, so a set test alone lets them in.
        loose = {}
        for idx, (thresholds, outcomes, _, indifferent) in enumerate(self.agents):
            if type(thresholds) is not frozenset or type(outcomes) is not frozenset:
                # Read once: a one-shot iterable is checked and frozen alike.
                thresholds, outcomes = loose[idx] = (
                    read_set(thresholds, "thresholds", idx),
                    read_set(outcomes, "outcomes", idx),
                )
            try:
                if not outcome_universe.issuperset(outcomes):
                    raise ValidationError(f"agent {idx} outcomes outside {{r, p}}")
            except TypeError:
                raise ValidationError(f"agent {idx} outcomes must be hashable") from None
            for t in thresholds:
                if type(t) is not int or not 1 <= t <= n:
                    raise ValidationError(
                        f"agent {idx} thresholds must be integers in [1, {n}]"
                    )
            if not indifferent and not family.issuperset(thresholds):
                # Sub-majority thresholds only ever matter counterfactually.
                raise ValidationError(
                    f"agent {idx} is not implementation-indifferent; "
                    "thresholds must be feasible-family members"
                )
        if loose:
            object.__setattr__(self, "agents", freeze_agents(self.agents, loose, AdcAgent))

    @cached_property
    def votes_p(self) -> int:
        return self.votes.count(PROPOSAL)

    @cached_property
    def rule_value(self) -> dict:
        """Threshold -> outcome, built on first read: unsolved instances, like witnesses, skip it."""
        return threshold_outcomes(self.n, self.votes_p)

    @cached_property
    def feasible_rules(self) -> tuple:
        """The feasible thresholds in ``tie_break_order``: status quo first, then smallest ``t``."""
        return tie_break_order(self.outcomes, sorted(self.feasible_thresholds), self.rule_value)

    def rule_ref(self, t: int) -> RuleRef:
        """The bridged rule of threshold ``t``: id ``t<t>``, valued at ``votes_p``."""
        return RuleRef(rule_id(t), self.rule_value[t])


def threshold_outcomes(n: int, votes_p: int) -> dict:
    """Each threshold ``t`` in ``[1, n]``, ascending -> its outcome when ``votes_p`` back ``p``.

    The one statement of the supermajority rule: ``t`` selects ``p`` exactly
    when ``t <= votes_p``. ``AdcInstance.rule_value`` holds this lookup for
    one instance, ``amendment`` builds one per ballot, and ``bounds`` builds
    one per vote count and hands it to ``core.substitute_absolute_disjunctivists``.
    """
    outcome_of = dict.fromkeys(range(1, votes_p + 1), PROPOSAL)
    outcome_of.update(dict.fromkeys(range(votes_p + 1, n + 1), STATUS_QUO))
    return outcome_of


def adc_to_generic(instance: AdcInstance) -> GenericInstance:
    """The same instance in the generic model, which only cross-checks need.

    No ``solve`` path calls it. The benchmark's solve check, acceptance
    criterion 1 and the tests run the oracle on the bridged instance, so the
    threshold-space oracle is checked against the generic one.

    The rule universe covers every threshold an agent may reference,
    including sub-majority ones; only the instance's feasible family
    members are feasible rules, declared in the orders ``AdcInstance.feasible_rules``
    hands ``core.tie_break_order``. The rules are the instance's ``rule_value`` in
    key order; each id is built once per call, so the rules and the agents'
    and feasible sets share it. Agent records are built with ``tuple.__new__``,
    as the parsers build theirs, skipping the NamedTuple's argument binding.
    """
    values = instance.rule_value
    ids = {t: rule_id(t) for t in values}
    record = tuple.__new__
    agents = [
        record(SatisfyingSpec, (frozenset(map(ids.__getitem__, thresholds)), outcomes, conj, ii))
        for thresholds, outcomes, conj, ii in instance.agents
    ]
    return GenericInstance(
        outcomes=instance.outcomes,
        rules=tuple(map(RuleRef, ids.values(), values.values())),
        feasible_outcomes=frozenset(OUTCOMES),
        feasible_rule_ids=frozenset(map(ids.__getitem__, instance.feasible_thresholds)),
        agents=tuple(agents),
    )
