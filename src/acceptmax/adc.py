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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .core import GenericInstance, RuleRef, SatisfyingSpec, ValidationError

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


def supermajority_outcome(t: int, votes_p: int, n: int) -> str:
    """Outcome selected by threshold ``t`` when ``votes_p`` agents back the proposal."""
    if not 1 <= t <= n:
        raise ValidationError(f"threshold {t} outside [1, {n}]")
    if not 0 <= votes_p <= n:
        raise ValidationError(f"vote count {votes_p} outside [0, {n}]")
    return PROPOSAL if votes_p >= t else STATUS_QUO


def rule_id(t: int) -> str:
    return f"t{t}"


@dataclass(frozen=True)
class AdcAgent:
    """One agent's acceptable thresholds and outcomes plus type flags."""

    thresholds: frozenset
    outcomes: frozenset
    conjunctive: bool = False
    implementation_indifferent: bool = False

    def realized(self, votes_p: int) -> frozenset:
        """Outcomes some acceptable threshold selects on the observed profile."""
        out = set()
        for t in self.thresholds:
            out.add(PROPOSAL if votes_p >= t else STATUS_QUO)
        return frozenset(out)


@dataclass(frozen=True)
class AdcInstance:
    """A binary-choice problem: the votes, the feasible thresholds, the agents."""

    votes: tuple
    agents: tuple
    feasible_thresholds: frozenset = None  # defaults to the full family

    def __post_init__(self):
        n = len(self.votes)
        if n == 0:
            raise ValidationError("instance has no votes")
        if any(v not in OUTCOMES for v in self.votes):
            raise ValidationError("votes must be 'r' or 'p'")
        if self.feasible_thresholds is None:
            object.__setattr__(
                self, "feasible_thresholds", frozenset(threshold_family(n))
            )
        family = set(threshold_family(n))
        if (
            not self.feasible_thresholds
            or not set(self.feasible_thresholds) <= family
            or any(type(t) is not int for t in self.feasible_thresholds)
        ):
            raise ValidationError("feasible thresholds must be a nonempty family subset")
        if len(self.agents) != n:
            raise ValidationError("agent count must match vote count")
        for idx, agent in enumerate(self.agents):
            if not agent.outcomes <= set(OUTCOMES):
                raise ValidationError(f"agent {idx} outcomes outside {{r, p}}")
            if any(type(t) is not int or not 1 <= t <= n for t in agent.thresholds):
                raise ValidationError(f"agent {idx} thresholds must be integers in [1, {n}]")
            if not agent.implementation_indifferent and not agent.thresholds <= family:
                # Sub-majority thresholds only ever matter counterfactually.
                raise ValidationError(
                    f"agent {idx} is not implementation-indifferent; "
                    "thresholds must be feasible-family members"
                )

    @cached_property
    def n(self) -> int:
        return len(self.votes)

    @cached_property
    def votes_p(self) -> int:
        return sum(1 for v in self.votes if v == PROPOSAL)

    def realizable_outcomes(self) -> frozenset:
        """Outcomes selected by at least one feasible threshold."""
        return frozenset(
            supermajority_outcome(t, self.votes_p, self.n)
            for t in self.feasible_thresholds
        )


def adc_accepts(agent: AdcAgent, t: int, outcome: str, votes_p: int) -> bool:
    """Fast acceptance predicate over threshold-encoded decisions."""
    outcome_ok = outcome in agent.outcomes
    if agent.implementation_indifferent:
        if outcome == PROPOSAL:
            rule_ok = any(s <= votes_p for s in agent.thresholds)
        else:
            rule_ok = any(s > votes_p for s in agent.thresholds)
    else:
        rule_ok = t in agent.thresholds
    if agent.conjunctive:
        return outcome_ok and rule_ok
    return outcome_ok or rule_ok


def adc_decisions(n: int, votes_p: int, feasible) -> list:
    """Feasible (threshold, outcome) pairs, sorted by (outcome, threshold)."""
    return sorted(
        ((t, supermajority_outcome(t, votes_p, n)) for t in feasible),
        key=lambda p: (p[1], p[0]),
    )


@lru_cache(maxsize=None)
def _rule_universe(n: int, votes_p: int) -> tuple:
    return tuple(
        RuleRef(rule_id(t), supermajority_outcome(t, votes_p, n))
        for t in range(1, n + 1)
    )


def adc_to_generic(instance: AdcInstance) -> GenericInstance:
    """Bridge to the generic model, where ``core.max_accept`` solves it.

    The rule universe covers every threshold an agent may reference,
    including sub-majority ones; only the instance's feasible family
    members are feasible rules. The declared orders set the tie-break:
    the status quo before the proposal, then thresholds in ascending
    numeric order.
    """
    n = instance.n
    agents = tuple(
        SatisfyingSpec(
            rule_ids=frozenset(rule_id(t) for t in a.thresholds),
            outcomes=a.outcomes,
            conjunctive=a.conjunctive,
            implementation_indifferent=a.implementation_indifferent,
            vote=instance.votes[i],
        )
        for i, a in enumerate(instance.agents)
    )
    return GenericInstance(
        outcomes=(STATUS_QUO, PROPOSAL),
        rules=_rule_universe(n, instance.votes_p),
        feasible_outcomes=frozenset(OUTCOMES),
        feasible_rule_ids=frozenset(rule_id(t) for t in instance.feasible_thresholds),
        agents=agents,
    )
