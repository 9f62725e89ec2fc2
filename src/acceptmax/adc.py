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
from itertools import chain
from typing import NamedTuple

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


@lru_cache(maxsize=None)
def _rule_ids(n: int) -> dict:
    """Threshold -> rule id ``t<t>`` for every ``t`` in ``[1, n]``, one string object each.

    The bridge and ``AdcInstance.rule_ref`` take every id from here, so the
    bridge builds no string per agent and the rule universe, the agents' sets
    and the feasible set share the same objects: set and dict lookups reuse
    each string's cached hash. The cached dict is shared, so it is only read.
    """
    return {t: f"t{t}" for t in range(1, n + 1)}


def rule_threshold(rule_id: str) -> int:
    """The threshold ``t`` of a bridged rule id ``t<t>``: the inverse of ``_rule_ids``."""
    return int(rule_id[1:])


class AdcAgent(NamedTuple):
    """One agent's acceptable thresholds and outcomes plus type flags.

    A ``NamedTuple`` with ``core.SatisfyingSpec``'s layout, thresholds in
    place of rule ids, so ``core.substitute_absolute_disjunctivist`` reads
    both: see ``acceptmax.core``.
    """

    thresholds: frozenset
    outcomes: frozenset
    conjunctive: bool = False
    implementation_indifferent: bool = False


@dataclass(frozen=True)
class AdcInstance:
    """A binary-choice problem: the votes, the feasible thresholds, the agents."""

    votes: tuple
    agents: tuple
    feasible_thresholds: frozenset = None  # defaults to the full family
    outcomes = (STATUS_QUO, PROPOSAL)  # not a field: the universe in tie-break order

    def __post_init__(self):
        n = len(self.votes)
        if n == 0:
            raise ValidationError("instance has no votes")
        if not all(map(OUTCOMES.__contains__, self.votes)):
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
        # The whole instance is checked at once; only if that fails does the
        # per-agent loop run, to name the first bad agent. Types are checked
        # per element: a union keeps one of the equal ``1``, ``1.0`` and ``True``.
        agents = self.agents
        outcome_universe = set(OUTCOMES)
        thresholds = [a.thresholds for a in agents]
        union = set().union(*thresholds)
        if (
            set(map(type, chain.from_iterable(thresholds))) <= {int}
            and set().union(*[a.outcomes for a in agents]) <= outcome_universe
            and (not union or (min(union) >= 1 and max(union) <= n))
            and set().union(
                *[a.thresholds for a in agents if not a.implementation_indifferent]
            ) <= family
        ):
            return
        for idx, agent in enumerate(agents):
            if not agent.outcomes <= outcome_universe:
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
        return self.votes.count(PROPOSAL)

    @property
    def rule_value(self) -> dict:
        """Threshold -> outcome: the lookup ``core.max_accept`` tallies with."""
        return threshold_outcomes(self.n, self.votes_p)

    def feasible_rules(self) -> list:
        """The feasible thresholds in tie-break order: status quo first, then smallest ``t``.

        Thresholds above ``votes_p`` select the status quo and come first,
        ascending; those at or below it select the proposal, ascending. This
        is the order ``adc_to_generic`` declares, so both give one winner.
        """
        votes_p, ts = self.votes_p, sorted(self.feasible_thresholds)
        return [t for t in ts if t > votes_p] + [t for t in ts if t <= votes_p]

    def rule_ref(self, t: int) -> RuleRef:
        """The bridged rule of threshold ``t``: id ``t<t>``, valued at ``votes_p``."""
        return RuleRef(_rule_ids(self.n)[t], self.rule_value[t])


@lru_cache(maxsize=16)
def threshold_outcomes(n: int, votes_p: int) -> dict:
    """Each threshold ``t`` in ``[1, n]`` -> its outcome when ``votes_p`` agents back ``p``.

    ``t`` selects ``p`` exactly when ``t <= votes_p``. This one cached,
    read-only lookup is ``AdcInstance.rule_value``, which ``core.max_accept``
    solves with, the source of the bridge's rule universe, and the lookup
    ``bounds`` hands to ``core.substitute_absolute_disjunctivist``. The cache
    keeps the 16 latest ``(n, votes_p)``: each entry is an n-entry dict, 8.4 MB
    at n = 10^5, and a miss rebuilds it in about 0.2 ms at n = 3200.
    """
    return {t: PROPOSAL if t <= votes_p else STATUS_QUO for t in range(1, n + 1)}


def _rule_universe(n: int, votes_p: int) -> tuple:
    """The rule of every threshold ``t`` in ``[1, n]`` in ascending order, valued at ``votes_p``."""
    ids, values = _rule_ids(n), threshold_outcomes(n, votes_p)
    return tuple(map(RuleRef, ids.values(), values.values()))


def adc_to_generic(instance: AdcInstance) -> GenericInstance:
    """The same instance in the generic model, which only the oracle needs.

    The rule universe covers every threshold an agent may reference,
    including sub-majority ones; only the instance's feasible family
    members are feasible rules. The declared orders set the tie-break:
    the status quo before the proposal, then ascending thresholds.
    """
    n = instance.n
    ids = _rule_ids(n)
    agents = [
        SatisfyingSpec(
            frozenset(map(ids.__getitem__, a.thresholds)),
            a.outcomes,
            a.conjunctive,
            a.implementation_indifferent,
        )
        for a in instance.agents
    ]
    return GenericInstance(
        outcomes=instance.outcomes,
        rules=_rule_universe(n, instance.votes_p),
        feasible_outcomes=frozenset(OUTCOMES),
        feasible_rule_ids=frozenset(map(ids.__getitem__, instance.feasible_thresholds)),
        agents=tuple(agents),
    )
