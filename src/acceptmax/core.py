"""Acceptance-maximizing collective decisions over (rule, outcome) pairs.

A decision applies a rule to one observed profile of votes and yields an
outcome. Agents accept or reject decisions based on which rules and which
outcomes they find acceptable, combined conjunctively or disjunctively,
and on whether they care which rule was actually implemented or only what
it produced ("implementation indifference").

Since a single instance observes a single profile, rules are represented
extensionally by the outcome they select on that profile; each instance
owns that rule -> outcome lookup as its ``rule_value``, and its feasible
rules in tie-break order as the tuple ``feasible_rules``. Everything here is
an immutable value; all operations are pure functions and safe to call
concurrently.

Acceptance has one closed form, the substitution
``substitute_absolute_disjunctivists(agents, rule_value)``: per agent, in
order, the absolute disjunctivist (R', Y') that accepts what it accepts.
``max_accept`` calls it once per instance and ``bounds`` once per vote count
to score agent options. ``accepts`` restates the definition only as the
oracle's reference, deciding each agent once per decision; the rule it
tests is a ``rule_value`` key, so it reads generic and adc agents alike.
``tie_break_order`` is both maximizers' one tie-break; each instance runs it
once, and both maximizers read the order it stored.

Equal fields give equal values with equal hashes, and no field can be
assigned. No class here comes from the standard library's class-generating
decorator: its module loads ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and each decorated class execs generated code, which together cost a cold
``acceptmax solve`` more start-up time than the package's own modules. The
records that check nothing are ``typing.NamedTuple``s: ``SatisfyingSpec``
and ``RuleRef``, built per agent and rule, and the reports ``SolveReport``
and ``OracleResult``. Being tuples, they also compare equal to a plain tuple
of the same fields, unpack, and iterate and order like one (``RuleRef`` by
id, then value). ``Decision`` and the instances check their fields when
built, so they are plain classes on ``FrozenValue``: each ``__init__`` sets
the fields and then validates, and they never equal a tuple.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised when an instance fails structural validation at load time."""


class FrozenValue:
    """Base of the classes that validate their fields: an immutable value.

    A subclass lists its fields in ``_fields`` and sets them in ``__init__``
    through the instance ``__dict__`` (or ``object.__setattr__``), which
    ``__setattr__`` does not guard. Facts derived from the fields, such as
    ``rule_value`` and ``feasible_rules``, are stored there once too, in
    ``__init__`` or on first read. Values of the same class compare and hash
    by their fields, and compare unequal to anything else.
    """

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")


class RuleRef(NamedTuple):
    """A decision rule, identified by id and by its value on the observed profile."""

    id: str
    value_at_profile: str


class Decision(FrozenValue):
    """A (rule, outcome) pair with the outcome the rule selects on the profile."""

    _fields = ("rule", "outcome")

    def __init__(self, rule: RuleRef, outcome: str):
        self.__dict__.update(rule=rule, outcome=outcome)
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
    ``AGENT_TYPES`` names the seven types by these flags and by which sets
    they may fill: consequentialists name no rules, proceduralists no outcomes.
    """

    rule_ids: frozenset
    outcomes: frozenset
    conjunctive: bool = False
    implementation_indifferent: bool = False


AGENT_TYPES = {
    # name -> (conjunctive, implementation_indifferent, names_rules, names_outcomes)
    "consequentialist": (False, True, False, True),
    "absolute_proceduralist": (False, False, True, False),
    "ii_proceduralist": (False, True, True, False),
    "absolute_disjunctivist": (False, False, True, True),
    "absolute_conjunctivist": (True, False, True, True),
    "ii_disjunctivist": (False, True, True, True),
    "ii_conjunctivist": (True, True, True, True),
}

# Keyed (conjunctive, ii, has rules, has outcomes); built bottom up so the first fitting row wins.
_TYPE_NAMES = {
    (conj, ii, has_rules, has_outcomes): name
    for name, (conj, ii, names_rules, names_outcomes) in reversed(AGENT_TYPES.items())
    for has_rules in {False, names_rules} for has_outcomes in {False, names_outcomes}
}


def agent_type_name(agent) -> str:
    """The first type in table order with the agent's flags whose allowed sets cover its sets."""
    rules, outcomes, conjunctive, indifferent = agent
    return _TYPE_NAMES[conjunctive, indifferent, bool(rules), bool(outcomes)]


def read_set(values, field: str, idx: int | None = None) -> tuple:
    """``values`` read once into a tuple; if it is not iterable, a ValidationError names
    ``field``, and agent ``idx`` when given: a location built only on the error path.
    """
    try:
        return tuple(values)
    except TypeError:
        where = field if idx is None else f"agent {idx} {field}"
        raise ValidationError(f"{where} must be iterable, not {type(values).__name__}") from None


def record_error(agents, idx: int) -> ValidationError:
    """The error for agent ``idx``, which does not unpack into an agent record's four fields.

    Built only on the error path: the constructors unpack each record in
    their validation loop and call this when the unpacking fails.
    """
    agent = agents[idx]
    try:
        shape = f"{len(agent)} fields"
    except TypeError:
        shape = type(agent).__name__
    return ValidationError(f"agent {idx} must be a record of 4 fields, not {shape}")


def _frozen(values, what: str) -> frozenset:
    """``values`` as a frozenset; if it is not iterable or holds an unhashable element, a
    ValidationError names ``what`` and says which.
    """
    try:
        return frozenset(values)
    except TypeError:
        read_set(values, what)  # says so if ``values`` is not iterable at all
        raise ValidationError(f"{what} must be hashable") from None


def freeze_agents(agents, loose, record) -> tuple:
    """``agents`` with each record that ``loose`` indexes rebuilt as a ``record`` of frozensets.

    The instances accept tuple, list or set fields and store them this way,
    so the tally reads hashed sets whose repeated elements count once.
    ``loose`` maps an index to the record's two sets as validation read
    them, so a one-shot iterable is frozen with the elements it held.
    Records whose sets are already frozensets are kept as they are.
    """
    agents = list(agents)
    for idx, (rules, outcomes) in loose.items():
        _, _, conjunctive, indifferent = agents[idx]
        agents[idx] = record(frozenset(rules), frozenset(outcomes), conjunctive, indifferent)
    return tuple(agents)


def tie_break_order(outcomes, rules, rule_value) -> tuple:
    """``rules`` by their outcome's position in ``outcomes``, then as given; other rules left out.

    The one tie-break: both maximizers, on generic and adc instances alike,
    return the first maximizing decision in this order.
    """
    by_outcome = {y: [] for y in outcomes}
    for r in rules:
        group = by_outcome.get(rule_value[r])
        if group is not None:
            group.append(r)
    return tuple([r for group in by_outcome.values() for r in group])


class GenericInstance(FrozenValue):
    """One decision problem: universes, feasible subsets and the agents.

    Validation also stores two facts of the fields, which are not fields:
    the rule id -> outcome lookup ``rule_value``, and ``feasible_rules``, the
    ids of the feasible rules whose outcome is feasible in ``tie_break_order``.
    """

    _fields = ("outcomes", "rules", "feasible_outcomes", "feasible_rule_ids", "agents")

    def __init__(
        self,
        outcomes: tuple,
        rules: tuple,
        feasible_outcomes: frozenset,
        feasible_rule_ids: frozenset,
        agents: tuple,
    ):
        self.__dict__.update(
            outcomes=read_set(outcomes, "outcomes"),
            rules=read_set(rules, "rules"),
            feasible_outcomes=_frozen(feasible_outcomes, "feasible outcomes"),
            feasible_rule_ids=_frozen(feasible_rule_ids, "feasible rules"),
            agents=read_set(agents, "agents"),
        )
        self.__dict__["n"] = len(self.agents)
        outcome_universe = _frozen(self.outcomes, "outcome ids")
        if len(outcome_universe) != len(self.outcomes):
            raise ValidationError("duplicate outcome ids")
        rule_universe = _frozen([r.id for r in self.rules], "rule ids")
        if len(rule_universe) != len(self.rules):
            raise ValidationError("duplicate rule ids")
        for r in self.rules:
            # Compared by equality: an unhashable value is unknown, not a TypeError.
            if r.value_at_profile not in self.outcomes:
                raise ValidationError(
                    f"rule {r.id!r} selects unknown outcome {r.value_at_profile!r}"
                )
        if not self.feasible_outcomes <= outcome_universe:
            raise ValidationError("feasible outcomes outside the outcome universe")
        if not self.feasible_rule_ids <= rule_universe:
            raise ValidationError("feasible rules outside the rule universe")
        if not self.agents:
            raise ValidationError("instance has no agents")
        loose = {}
        try:
            for idx, (rule_ids, outcomes, _, _) in enumerate(self.agents):
                try:
                    if type(rule_ids) is not frozenset or type(outcomes) is not frozenset:
                        # Read once: a one-shot iterable is checked and frozen alike.
                        rule_ids, outcomes = loose[idx] = (
                            read_set(rule_ids, "rule ids", idx),
                            read_set(outcomes, "outcomes", idx),
                        )
                    if not rule_universe.issuperset(rule_ids):
                        raise ValidationError(f"agent {idx} references unknown rule ids")
                    if not outcome_universe.issuperset(outcomes):
                        raise ValidationError(f"agent {idx} references unknown outcomes")
                except TypeError:
                    raise ValidationError(f"agent {idx} sets must be hashable") from None
        except ValidationError:
            raise
        except (TypeError, ValueError):  # only the loop's unpacking of a record raises these
            raise record_error(self.agents, idx) from None
        if loose:
            object.__setattr__(self, "agents", freeze_agents(self.agents, loose, SatisfyingSpec))
        values = self.__dict__["rule_value"] = {r.id: r.value_at_profile for r in self.rules}
        self.__dict__["feasible_rules"] = tie_break_order(
            [y for y in self.outcomes if y in self.feasible_outcomes],
            [r.id for r in self.rules if r.id in self.feasible_rule_ids],
            values,
        )
        if not self.feasible_rules:
            raise ValidationError("no feasible decision exists")

    def rule_ref(self, rule_id: str) -> RuleRef:
        return RuleRef(rule_id, self.rule_value[rule_id])


class SolveReport(NamedTuple):
    """Chosen decision plus exactly who accepts it."""

    decision: Decision
    accepted_by: frozenset
    acceptance_count: int


class OracleResult(NamedTuple):
    """Brute-force result: the best report and the count for every feasible decision."""

    report: SolveReport
    tally: tuple  # ((Decision, count), ...) in feasible_rules order


def accepts(agent: SatisfyingSpec, decision: Decision, instance: GenericInstance) -> bool:
    """Whether the agent accepts the decision, per the agent's type flags.

    The agent is read by position, as ``substitute_absolute_disjunctivists``
    reads it, so a ``SatisfyingSpec`` and an ``adc.AdcAgent`` both work. The
    decision's rule id is a key of ``instance.rule_value``: a rule id, or an
    adc threshold.
    """
    rules, outcomes, conjunctive, indifferent = agent
    y = decision.outcome
    outcome_ok = y in outcomes
    if indifferent:
        rule_ok = y in map(instance.rule_value.__getitem__, rules)
    else:
        rule_ok = decision.rule.id in rules
    if conjunctive:
        return outcome_ok and rule_ok
    return outcome_ok or rule_ok


_EMPTY = frozenset()


def substitute_absolute_disjunctivists(agents, rule_value) -> list:
    """The sets (R', Y') of the absolute disjunctivist accepting what each agent accepts, in order.

    Each agent is read by position as (rules, outcomes, conjunctive,
    implementation_indifferent), the layout of ``SatisfyingSpec`` and of
    ``adc.AdcAgent``, with frozenset sets as the instances store them.
    ``rule_value`` maps each rule to the outcome it selects on the profile:
    an instance's ``rule_value``, or ``adc.threshold_outcomes``.
    An agent accepts (r, y) exactly when y is in its Y' or r is in its R'.
    Implementation-indifferent rule concerns collapse into the outcomes those
    rules realize; conjunctive rule sets keep only the rules whose realized
    outcome is acceptable. An absolute disjunctivist, and an
    implementation-indifferent disjunctivist without rules, gets its own sets
    back. The always-empty side is one shared empty frozenset.
    """
    value_of = rule_value.__getitem__
    pairs = []
    append = pairs.append
    for rules, outcomes, conjunctive, indifferent in agents:
        if indifferent:
            if not rules:
                append((_EMPTY, _EMPTY if conjunctive else outcomes))
            elif conjunctive:
                append((_EMPTY, outcomes.intersection(map(value_of, rules))))
            else:
                append((_EMPTY, outcomes.union(map(value_of, rules))))
        elif conjunctive:
            realized_ok = map(outcomes.__contains__, map(value_of, rules))
            append((frozenset(compress(rules, realized_ok)), _EMPTY))
        else:
            append((rules, outcomes))
    return pairs


def max_accept(instance) -> SolveReport:
    """Best feasible decision for any mix of agent types.

    ``instance`` is a ``GenericInstance`` or an ``adc.AdcInstance``, read
    through ``agents``, ``outcomes``, the rule -> outcome lookup
    ``rule_value``, the tuple ``feasible_rules`` that each instance orders
    once by ``tie_break_order``, and ``rule_ref`` for the winner. A rule is
    a key of the lookup: a rule id, or an adc threshold, so an adc instance
    is tallied without a bridge.

    Each agent is replaced by the absolute disjunctivist (R', Y') that
    accepts the same decisions, so a decision (r, y) is accepted by
    |{i : y in Y'_i}| + |{i : y not in Y'_i, r in R'_i}| agents. Both terms
    are tallied in one pass over the agents, straight from the two sets.
    Ties go to the first maximizer in ``feasible_rules`` order, as in
    the oracle.

    The report comes from the same substituted pairs: agent i accepts the
    winner (r, y) exactly when y is in Y'_i or r is in R'_i. So no agent is
    decided twice, and only the winner becomes a ``Decision``. The oracle
    decides each agent with ``accepts`` instead, and stays independent.
    """
    values = instance.rule_value
    outcome_count = dict.fromkeys(instance.outcomes, 0)
    rule_count = dict.fromkeys(values, 0)
    pairs = substitute_absolute_disjunctivists(instance.agents, values)
    for rule_ids, outcomes in pairs:
        for y in outcomes:
            outcome_count[y] += 1
        if rule_ids:
            for rid in rule_ids:
                if values[rid] not in outcomes:
                    rule_count[rid] += 1
    best, best_count = None, -1
    for rid in instance.feasible_rules:
        count = outcome_count[values[rid]] + rule_count[rid]
        if count > best_count:
            best, best_count = rid, count
    y = values[best]
    accepted = frozenset(
        i for i, (rule_ids, outcomes) in enumerate(pairs) if y in outcomes or best in rule_ids
    )
    return SolveReport(Decision(instance.rule_ref(best), y), accepted, len(accepted))


def oracle_max_accept(instance) -> OracleResult:
    """Enumerate every feasible decision and tally acceptance for each.

    The definitional solver ``max_accept`` is checked against. It reads a
    ``GenericInstance`` or an ``adc.AdcInstance`` as ``max_accept`` does, so
    an adc instance is decided in threshold space, without a bridge. Each
    agent is decided with ``accepts`` once per decision (r, y), where r is a
    ``rule_value`` key, and the report is the first maximizer's accepters in
    ``feasible_rules`` order. The tally and the report name each rule by
    ``rule_ref``, so an adc threshold ``t`` reads as the rule ``t<t>``.
    """
    values = instance.rule_value
    agents = instance.agents
    tally = []
    best = None
    for r in instance.feasible_rules:
        y = values[r]
        named = Decision(instance.rule_ref(r), y)
        # A generic rule is named by its key; an adc threshold t by ``t<t>``.
        decision = named if named.rule.id == r else Decision(RuleRef(r, y), y)
        accepted = frozenset(
            i for i, agent in enumerate(agents) if accepts(agent, decision, instance)
        )
        tally.append((named, len(accepted)))
        if best is None or len(accepted) > len(best[1]):
            best = (named, accepted)
    named, accepted = best
    return OracleResult(SolveReport(named, accepted, len(accepted)), tuple(tally))
