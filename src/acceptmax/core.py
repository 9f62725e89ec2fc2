"""Acceptance-maximizing collective decisions over (rule, outcome) pairs.

A decision applies a rule to one observed profile of votes and yields an
outcome. Agents accept or reject decisions based on which rules and which
outcomes they find acceptable, combined conjunctively or disjunctively,
and on whether they care which rule was actually implemented or only what
it produced ("implementation indifference").

Since a single instance observes a single profile, rules are represented
extensionally by the outcome they select on that profile. Everything here
is an immutable value; all operations are pure functions and safe to call
concurrently.

Acceptance has one closed form, the substitution
``substitute_absolute_disjunctivist(agent, rule_value)``: the absolute
disjunctivist (R', Y') that accepts what ``agent`` accepts. ``max_accept``
tallies from it and ``bounds`` scores agent options with it. ``accepts``
restates the definition only as the oracle's reference.

The per-agent and per-rule records, ``SatisfyingSpec`` and ``RuleRef``,
are ``typing.NamedTuple``s: a large electorate builds one per agent, and a
tuple is built in about a third of a frozen dataclass's time. Their fields
cannot be assigned, and equal fields give equal records with equal hashes.
Being tuples, they also compare equal to a plain tuple of the same fields,
and they iterate and order like one (``RuleRef`` by id, then value).
``Decision``, which checks its fields, the instances and the reports are
frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised when an instance fails structural validation at load time."""


class RuleRef(NamedTuple):
    """A decision rule, identified by id and by its value on the observed profile."""

    id: str
    value_at_profile: str


@dataclass(frozen=True)
class Decision:
    """A (rule, outcome) pair with the outcome the rule selects on the profile."""

    rule: RuleRef
    outcome: str

    def __post_init__(self):
        if self.outcome != self.rule.value_at_profile:
            raise ValidationError(
                f"decision outcome {self.outcome!r} does not match "
                f"rule {self.rule.id!r} value {self.rule.value_at_profile!r}"
            )


class SatisfyingSpec(NamedTuple):
    """Compact encoding of the set of decisions one agent accepts.

    ``rule_ids`` and ``outcomes`` are the acceptable rules and outcomes.
    ``conjunctive`` selects AND over OR for combining the two concerns.
    ``implementation_indifferent`` means the rule concern is evaluated
    counterfactually: "some acceptable rule would have produced this
    outcome" rather than "the implemented rule is acceptable".
    Consequentialists are disjunctive agents with empty ``rule_ids``;
    proceduralists are disjunctive agents with empty ``outcomes``.
    """

    rule_ids: frozenset
    outcomes: frozenset
    conjunctive: bool = False
    implementation_indifferent: bool = False


@dataclass(frozen=True)
class GenericInstance:
    """One decision problem: universes, feasible subsets and the agents."""

    outcomes: tuple
    rules: tuple
    feasible_outcomes: frozenset
    feasible_rule_ids: frozenset
    agents: tuple

    def __post_init__(self):
        outcome_universe = set(self.outcomes)
        if len(outcome_universe) != len(self.outcomes):
            raise ValidationError("duplicate outcome ids")
        rule_universe = {r.id for r in self.rules}
        if len(rule_universe) != len(self.rules):
            raise ValidationError("duplicate rule ids")
        for r in self.rules:
            if r.value_at_profile not in outcome_universe:
                raise ValidationError(
                    f"rule {r.id!r} selects unknown outcome {r.value_at_profile!r}"
                )
        if not self.feasible_outcomes <= outcome_universe:
            raise ValidationError("feasible outcomes outside the outcome universe")
        if not self.feasible_rule_ids <= rule_universe:
            raise ValidationError("feasible rules outside the rule universe")
        if not self.agents:
            raise ValidationError("instance has no agents")
        for idx, agent in enumerate(self.agents):
            if not agent.rule_ids <= rule_universe:
                raise ValidationError(f"agent {idx} references unknown rule ids")
            if not agent.outcomes <= outcome_universe:
                raise ValidationError(f"agent {idx} references unknown outcomes")
        if not any(
            r.id in self.feasible_rule_ids and r.value_at_profile in self.feasible_outcomes
            for r in self.rules
        ):
            raise ValidationError("no feasible decision exists")

    @classmethod
    def trusted(cls, outcomes, rules, feasible_outcomes, feasible_rule_ids, agents):
        """An instance built without ``__post_init__``'s checks.

        Only for callers whose instance is valid by construction, such as
        ``adc.adc_to_generic``: it bridges an already validated ``AdcInstance``,
        so checking every agent again would pay twice for the same facts.
        """
        instance = object.__new__(cls)
        vars(instance).update(
            outcomes=outcomes,
            rules=rules,
            feasible_outcomes=feasible_outcomes,
            feasible_rule_ids=feasible_rule_ids,
            agents=agents,
        )
        return instance

    @cached_property
    def rule_value(self) -> dict:
        return {r.id: r.value_at_profile for r in self.rules}

    @cached_property
    def n(self) -> int:
        return len(self.agents)

    def _feasible_rules(self) -> list:
        """The feasible rules whose outcome is feasible, in tie-break order.

        Outcomes come in the order ``outcomes`` declares them and, within
        one outcome, rules in the order ``rules`` declares them. Both
        maximizers return the first maximizing decision in this order.
        """
        by_outcome = {y: [] for y in self.outcomes if y in self.feasible_outcomes}
        for r in self.rules:
            if r.id in self.feasible_rule_ids and r.value_at_profile in by_outcome:
                by_outcome[r.value_at_profile].append(r)
        return [r for rules in by_outcome.values() for r in rules]

    def feasible_decisions(self) -> list:
        """All feasible decisions in tie-break order (see ``_feasible_rules``)."""
        return [Decision(rule=r, outcome=r.value_at_profile) for r in self._feasible_rules()]


@dataclass(frozen=True)
class SolveReport:
    """Chosen decision plus exactly who accepts it."""

    decision: Decision
    accepted_by: frozenset
    acceptance_count: int
    acceptance_rate: Fraction


@dataclass(frozen=True)
class OracleResult:
    """Brute-force result: the best report and the count for every feasible decision."""

    report: SolveReport
    tally: tuple  # ((Decision, count), ...) in feasible_decisions() order


def accepts(agent: SatisfyingSpec, decision: Decision, instance: GenericInstance) -> bool:
    """Whether the agent accepts the decision, per the agent's type flags."""
    y = decision.outcome
    outcome_ok = y in agent.outcomes
    if agent.implementation_indifferent:
        values = instance.rule_value
        rule_ok = any(values[rid] == y for rid in agent.rule_ids)
    else:
        rule_ok = decision.rule.id in agent.rule_ids
    if agent.conjunctive:
        return outcome_ok and rule_ok
    return outcome_ok or rule_ok


def _report(instance: GenericInstance, decision: Decision, accepted: frozenset) -> SolveReport:
    return SolveReport(
        decision=decision,
        accepted_by=accepted,
        acceptance_count=len(accepted),
        acceptance_rate=Fraction(len(accepted), instance.n),
    )


def make_report(instance: GenericInstance, decision: Decision) -> SolveReport:
    """The report for ``decision``, deciding each agent with ``accepts``."""
    accepted = frozenset(
        i for i, agent in enumerate(instance.agents) if accepts(agent, decision, instance)
    )
    return _report(instance, decision, accepted)


_EMPTY = frozenset()


def substitute_absolute_disjunctivist(agent, rule_value) -> tuple:
    """The sets (R', Y') of the absolute disjunctivist accepting the same decisions.

    ``agent`` is read by position as (rules, outcomes, conjunctive,
    implementation_indifferent), the layout of ``SatisfyingSpec`` and of
    ``adc.AdcAgent``. ``rule_value`` maps each rule to the outcome it selects
    on the profile: ``GenericInstance.rule_value``, or ``adc.threshold_outcomes``.
    The agent accepts (r, y) exactly when y is in Y' or r is in R'.
    Implementation-indifferent rule concerns collapse into the outcomes those
    rules realize; conjunctive rule sets keep only the rules whose realized
    outcome is acceptable. An absolute disjunctivist gets its own two sets
    back. The always-empty side is one shared empty frozenset.
    """
    rules, outcomes, conjunctive, indifferent = agent
    if indifferent:
        realized = frozenset(map(rule_value.__getitem__, rules))
        if conjunctive:
            return _EMPTY, outcomes & realized
        return _EMPTY, outcomes | realized
    if conjunctive:
        return frozenset(r for r in rules if rule_value[r] in outcomes), _EMPTY
    return rules, outcomes


def max_accept(instance: GenericInstance) -> SolveReport:
    """Best feasible decision for any mix of agent types.

    Each agent is replaced by the absolute disjunctivist (R', Y') that
    accepts the same decisions, so a decision (r, y) is accepted by
    |{i : y in Y'_i}| + |{i : y not in Y'_i, r in R'_i}| agents. Both terms
    are tallied in one pass over the agents, straight from the two sets.
    Ties go to the first maximizer in ``feasible_decisions()`` order, as in
    the oracle.

    The report comes from the same substituted pairs: agent i accepts the
    winner (r, y) exactly when y is in Y'_i or r is in R'_i. So no agent is
    decided twice, and only the winner becomes a ``Decision``. The oracle
    decides each agent with ``accepts`` instead, and stays independent.
    """
    values = instance.rule_value
    outcome_count = dict.fromkeys(instance.outcomes, 0)
    rule_count = dict.fromkeys(values, 0)
    pairs = [substitute_absolute_disjunctivist(agent, values) for agent in instance.agents]
    for rule_ids, outcomes in pairs:
        for y in outcomes:
            outcome_count[y] += 1
        for rid in rule_ids:
            if values[rid] not in outcomes:
                rule_count[rid] += 1
    best, best_count = None, -1
    for rule in instance._feasible_rules():
        count = outcome_count[rule.value_at_profile] + rule_count[rule.id]
        if count > best_count:
            best, best_count = rule, count
    rid, y = best.id, best.value_at_profile
    accepted = frozenset(
        i for i, (rule_ids, outcomes) in enumerate(pairs) if y in outcomes or rid in rule_ids
    )
    return _report(instance, Decision(rule=best, outcome=y), accepted)


def oracle_max_accept(instance: GenericInstance) -> OracleResult:
    """Enumerate every feasible decision and tally acceptance for each.

    The definitional solver ``max_accept`` is checked against. Ties break
    toward the first maximizer in ``feasible_decisions()`` order.
    """
    tally = []
    best = None
    for decision in instance.feasible_decisions():
        count = sum(
            1 for agent in instance.agents if accepts(agent, decision, instance)
        )
        tally.append((decision, count))
        if best is None or count > best[1]:
            best = (decision, count)
    return OracleResult(report=make_report(instance, best[0]), tally=tuple(tally))
