"""Generic model: acceptance predicate, substitution, mechanisms vs. the oracle."""

import functools
import inspect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acceptmax.adc import AdcAgent, AdcInstance, adc_to_generic
from acceptmax.amendment import AmendmentInstance, VotePolicy
from acceptmax.core import (
    AGENT_TYPES,
    Decision,
    GenericInstance,
    RuleRef,
    SatisfyingSpec,
    ValidationError,
    accepts,
    max_accept,
    oracle_max_accept,
    substitute_absolute_disjunctivists,
)

from conftest import (
    feasible_decisions,
    loosened,
    random_adc_instance,
    random_generic_instance,
    substituted,
)


def make_instance(agents, rules=None, outcomes=("A", "B", "C")):
    rules = rules or (RuleRef("r1", "A"), RuleRef("r2", "B"), RuleRef("r3", "A"))
    return GenericInstance(
        outcomes=outcomes,
        rules=rules,
        feasible_outcomes=frozenset(outcomes),
        feasible_rule_ids=frozenset(r.id for r in rules),
        agents=tuple(agents),
    )


def spec(R=(), Y=(), conjunctive=False, ii=False):
    return SatisfyingSpec(
        rule_ids=frozenset(R),
        outcomes=frozenset(Y),
        conjunctive=conjunctive,
        implementation_indifferent=ii,
    )


THREE_AGENTS = (
    spec(R={"r2"}, Y={"A"}),
    spec(R={"r1"}),
    spec(Y={"B"}),
)


class TestModel:
    def test_decision_must_match_rule_value(self):
        with pytest.raises(ValidationError):
            Decision(rule=RuleRef("r1", "A"), outcome="B")

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(ValidationError):
            make_instance([spec()], rules=(RuleRef("r1", "A"), RuleRef("r1", "B")))

    def test_dangling_agent_references_rejected(self):
        with pytest.raises(ValidationError):
            make_instance([spec(R={"nope"})])
        with pytest.raises(ValidationError):
            make_instance([spec(Y={"Z"})])

    def test_list_valued_agents_are_checked_like_frozensets(self):
        make_instance([SatisfyingSpec(["r1"], ["A"])])
        with pytest.raises(ValidationError, match="^agent 1 references unknown rule ids"):
            make_instance([spec(), SatisfyingSpec(["r0"], ["A"])])
        with pytest.raises(ValidationError, match="^agent 1 references unknown outcomes"):
            make_instance([spec(), SatisfyingSpec(["r1"], ["Z"])])

    def test_ii_conjunctivist_with_list_fields_is_solved(self):
        kept = spec(Y={"A"})
        inst = make_instance([SatisfyingSpec(["r2", "r2"], ["B", "B"], True, True), kept])
        assert inst.agents[0] == spec(R={"r2"}, Y={"B"}, conjunctive=True, ii=True)
        assert type(inst.agents[0].rule_ids) is type(inst.agents[0].outcomes) is frozenset
        assert inst.agents[1] is kept
        assert max_accept(inst) == oracle_max_accept(inst).report

    def test_no_feasible_decision_rejected(self):
        with pytest.raises(ValidationError):
            GenericInstance(
                outcomes=("A", "B"),
                rules=(RuleRef("r1", "A"),),
                feasible_outcomes=frozenset({"B"}),
                feasible_rule_ids=frozenset({"r1"}),
                agents=(spec(),),
            )

    def test_feasible_rules_canonical_order(self):
        inst = make_instance([spec()])
        keys = [(inst.rule_value[r], r) for r in inst.feasible_rules()]
        assert keys == [("A", "r1"), ("A", "r3"), ("B", "r2")]
        # Declared order, not string order: outcomes first, then rules.
        rules = (RuleRef("r10", "B"), RuleRef("r9", "A"), RuleRef("r2", "B"))
        inst = make_instance([spec()], rules=rules, outcomes=("B", "A"))
        keys = [(inst.rule_value[r], r) for r in inst.feasible_rules()]
        assert keys == [("B", "r10"), ("B", "r2"), ("A", "r9")]
        assert [inst.rule_ref(r) for r in inst.feasible_rules()] == [rules[0], rules[2], rules[1]]
        # Outcome order C, A, B differs from rule order; A and r5 are infeasible.
        rules = tuple(RuleRef(f"r{i}", y) for i, y in enumerate("ABCBC", start=1))
        inst = GenericInstance(
            outcomes=("C", "A", "B"),
            rules=rules,
            feasible_outcomes=frozenset({"B", "C"}),
            feasible_rule_ids=frozenset({"r1", "r2", "r3", "r4"}),
            agents=(spec(Y={"A", "B", "C"}),) * 2,
        )
        assert inst.feasible_rules() == ["r3", "r2", "r4"]
        assert max_accept(inst).decision.rule.id == "r3"
        assert max_accept(inst) == oracle_max_accept(inst).report


def adc_instance(threshold=2):
    """Votes p, r, p; the last agent, implementation-indifferent, names ``threshold``."""
    first = AdcAgent(frozenset({2}), frozenset({"p"}))
    last = AdcAgent(frozenset({threshold}), frozenset({"r"}), False, True)
    return AdcInstance(("p", "r", "p"), (first, first, last))


# One builder per class that validates its fields, each call a new value; its
# first argument and the message its rejection of a bad one raises.
VALIDATED = {
    "Decision": (
        lambda rule=RuleRef("r1", "A"): Decision(rule, "A"),
        RuleRef("r2", "B"),
        "^decision outcome 'A' does not match rule 'r2' value 'B'$",
    ),
    "GenericInstance": (
        lambda agent=spec(R={"r1"}, Y={"A"}): make_instance([spec(Y={"B"}), agent]),
        spec(R={"r9"}),
        "^agent 1 references unknown rule ids$",
    ),
    "AdcInstance": (adc_instance, 0, r"^agent 2 thresholds must be integers in \[1, 3\]$"),
    "AmendmentInstance": (
        lambda peak=3: AmendmentInstance((2, 3, peak), 2),
        1,
        "^peak outside the feasible threshold family$",
    ),
}


class TestRecords:
    """Records, decisions and instances are immutable values: equal fields, equal and same hash."""

    @pytest.mark.parametrize(
        "record, field",
        [
            (record, field)
            for record in [RuleRef("r1", "A"), spec(R={"r1"}, Y={"A"})]
            + [build() for build, _, _ in VALIDATED.values()]
            for field in record._fields
        ],
    )
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)

    def test_equal_fields_equal_and_same_hash(self):
        assert RuleRef("r1", "A") == RuleRef("r1", "A")
        assert hash(RuleRef("r1", "A")) == hash(RuleRef("r1", "A"))
        assert RuleRef("r1", "A") != RuleRef("r1", "B")
        a = SatisfyingSpec(frozenset({"r1"}), frozenset({"A"}), True, False)
        b = spec(R={"r1"}, Y={"A"}, conjunctive=True)
        assert a == b and hash(a) == hash(b)
        assert a != spec(R={"r1"}, Y={"A"})

    @pytest.mark.parametrize("name", VALIDATED)
    def test_validated_values_compare_by_fields_only(self, name):
        build, _, _ = VALIDATED[name]
        a, b = build(), build()
        # Every constructor argument is a field that equality reads.
        assert a._fields == tuple(inspect.signature(type(a)).parameters)
        assert a is not b and a == b and hash(a) == hash(b)
        fields = tuple(getattr(a, field) for field in a._fields)
        assert a != fields and fields != a
        assert repr(a).startswith(f"{name}({a._fields[0]}=")

    def test_validated_values_differ_by_any_field(self):
        assert Decision(RuleRef("r1", "A"), "A") != Decision(RuleRef("r3", "A"), "A")
        assert make_instance([spec(R={"r1"})]) != make_instance([spec(R={"r2"})])
        assert adc_instance(2) != adc_instance(1)
        votes, agents = adc_instance().votes, adc_instance().agents
        assert AdcInstance(votes, agents, frozenset({2})) != AdcInstance(votes, agents)
        assert AdcInstance(votes, agents) == AdcInstance(votes, agents, frozenset({2, 3}))
        assert AmendmentInstance((2, 3, 3), 2) != AmendmentInstance((2, 3, 3), 3)
        assert AmendmentInstance((2, 3, 3), 2) != AmendmentInstance((2, 3, 3), 2, "proposal")
        assert AmendmentInstance((2, 3, 3), 2) == AmendmentInstance((2, 3, 3), 2, "nearer")
        # Normalized fields compare as stored: list agents are stored as frozensets.
        loose = make_instance([SatisfyingSpec(["r1"], ["A"])])
        assert loose == make_instance([spec(R={"r1"}, Y={"A"})])

    def test_derived_values_read_and_are_kept(self):
        inst = make_instance([spec(R={"r1"})] * 2)
        assert inst.rule_value == {"r1": "A", "r2": "B", "r3": "A"} and inst.n == 2
        adc = adc_instance()
        assert (adc.n, adc.votes_p) == (3, 2)
        assert adc.rule_value == {1: "p", 2: "p", 3: "r"}
        assert AmendmentInstance((3, 3, 4, 4), 3).n == 4
        for value, name in [(inst, "rule_value"), (adc, "rule_value"), (adc, "votes_p")]:
            assert getattr(value, name) is getattr(value, name)

    def test_keywords_and_defaults_are_unchanged(self):
        adc = adc_instance()
        assert AdcInstance(votes=adc.votes, agents=adc.agents) == adc
        assert adc.feasible_thresholds == frozenset({2, 3})
        amend = AmendmentInstance(peaks=(2, 3, 3), status_quo=2)
        assert amend.vote_policy is VotePolicy.NEARER
        assert Decision(rule=RuleRef("r1", "A"), outcome="A") == Decision(RuleRef("r1", "A"), "A")

    @pytest.mark.parametrize("name", VALIDATED)
    def test_validation_survives_a_wrapped_init(self, name, monkeypatch):
        # A profiler that times validation wraps ``__init__`` in a pass-through.
        build, bad, message = VALIDATED[name]
        cls = type(build())
        init = cls.__init__
        calls = []

        @functools.wraps(init)
        def traced(*args, **kwargs):
            calls.append(1)
            return init(*args, **kwargs)

        expected = build()
        monkeypatch.setattr(cls, "__init__", traced)
        assert build() == expected
        with pytest.raises(ValidationError, match=message):
            build(bad)
        assert len(calls) == 2

    def test_flags_default_to_false(self):
        agent = SatisfyingSpec(frozenset(), frozenset({"A"}))
        assert agent.conjunctive is False
        assert agent.implementation_indifferent is False

    def test_rules_sort_by_id_then_value(self):
        rules = [RuleRef("r2", "A"), RuleRef("r1", "B"), RuleRef("r1", "A"), RuleRef("r10", "A")]
        assert sorted(rules) == [
            RuleRef("r1", "A"), RuleRef("r1", "B"), RuleRef("r10", "A"), RuleRef("r2", "A")
        ]


class TestStoredFields:
    """Sequence fields are stored as tuples and set fields as frozensets, whatever was passed."""

    def test_list_sequences_equal_tuples(self):
        adc = adc_instance()
        listed = AdcInstance(list(adc.votes), list(adc.agents))
        assert listed == adc and hash(listed) == hash(adc)
        assert type(listed.votes) is type(listed.agents) is tuple
        assert AdcInstance("prp", adc.agents) == adc
        amend = AmendmentInstance([2, 3, 3], 2)
        assert amend == AmendmentInstance((2, 3, 3), 2)
        assert hash(amend) == hash(AmendmentInstance((2, 3, 3), 2))
        assert type(amend.peaks) is tuple

    def test_listed_feasible_thresholds_are_a_set(self):
        votes, agents = adc_instance().votes, adc_instance().agents
        listed = AdcInstance(votes, agents, [2, 2, 3])
        frozen = AdcInstance(votes, agents, frozenset({2, 3}))
        assert listed == frozen and hash(listed) == hash(frozen)
        assert type(listed.feasible_thresholds) is frozenset
        assert listed.feasible_rules() == frozen.feasible_rules() == [3, 2]

    def test_listed_generic_fields_are_stored_frozen(self):
        rules = [RuleRef("r1", "A"), RuleRef("r2", "B")]
        listed = GenericInstance(["A", "B"], rules, ["A"], ["r1", "r1"], [spec(Y={"A"})])
        frozen = GenericInstance(
            ("A", "B"), tuple(rules), frozenset({"A"}), frozenset({"r1"}), (spec(Y={"A"}),)
        )
        assert listed == frozen and hash(listed) == hash(frozen)
        assert type(listed.outcomes) is type(listed.rules) is type(listed.agents) is tuple
        assert type(listed.feasible_outcomes) is type(listed.feasible_rule_ids) is frozenset

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("feasible_outcomes", [["A"]], "^feasible outcomes must be hashable$"),
            ("feasible_rule_ids", [["r1"]], "^feasible rules must be hashable$"),
            ("outcomes", [["A"], "B"], "^outcome ids must be hashable$"),
            ("rules", [RuleRef(["r1"], "A")], "^rule ids must be hashable$"),
            ("rules", [RuleRef("r1", ["A"])], r"^rule 'r1' selects unknown outcome \['A'\]$"),
            ("agents", [SatisfyingSpec(frozenset(), [["A"]])], "^agent 0 sets must be hashable$"),
            ("agents", [SatisfyingSpec([["r1"]], frozenset())], "^agent 0 sets must be hashable$"),
        ],
    )
    def test_unhashable_generic_element_is_a_validation_error(self, field, value, message):
        fields = dict(
            outcomes=("A", "B"),
            rules=(RuleRef("r1", "A"),),
            feasible_outcomes=frozenset({"A"}),
            feasible_rule_ids=frozenset({"r1"}),
            agents=(spec(),),
        )
        with pytest.raises(ValidationError, match=message):
            GenericInstance(**{**fields, field: value})

    @pytest.mark.parametrize("feasible", [[[2]], [{2}], [2, 2.0], [2, True], []])
    def test_bad_listed_feasible_threshold_is_a_validation_error(self, feasible):
        votes, agents = adc_instance().votes, adc_instance().agents
        with pytest.raises(ValidationError, match="^feasible thresholds must be a nonempty"):
            AdcInstance(votes, agents, feasible)

    def test_unhashable_adc_agent_outcome_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="^agent 0 outcomes must be hashable$"):
            AdcInstance("ppr", (AdcAgent(frozenset(), [["p"]]),) * 3)


class TestAccepts:
    def setup_method(self):
        self.inst = make_instance([spec()])
        self.d_r1A = Decision(RuleRef("r1", "A"), "A")
        self.d_r2B = Decision(RuleRef("r2", "B"), "B")
        self.d_r3A = Decision(RuleRef("r3", "A"), "A")

    def test_absolute_disjunctive(self):
        a = spec(R={"r2"}, Y={"A"})
        assert accepts(a, self.d_r1A, self.inst)  # outcome acceptable
        assert accepts(a, self.d_r2B, self.inst)  # rule acceptable
        assert not accepts(spec(R={"r2"}), self.d_r1A, self.inst)

    def test_absolute_conjunctive(self):
        a = spec(R={"r1", "r2"}, Y={"A"}, conjunctive=True)
        assert accepts(a, self.d_r1A, self.inst)
        assert not accepts(a, self.d_r2B, self.inst)  # rule ok, outcome not
        assert not accepts(a, self.d_r3A, self.inst)  # outcome ok, rule not

    def test_ii_disjunctive_counterfactual_rule(self):
        # r3 also yields A, so an agent holding only r3 accepts (r1, A).
        a = spec(R={"r3"}, ii=True)
        assert accepts(a, self.d_r1A, self.inst)
        assert not accepts(a, self.d_r2B, self.inst)

    def test_ii_conjunctive(self):
        a = spec(R={"r3"}, Y={"A"}, conjunctive=True, ii=True)
        assert accepts(a, self.d_r1A, self.inst)
        assert not accepts(
            spec(R={"r2"}, Y={"A"}, conjunctive=True, ii=True), self.d_r1A, self.inst
        )


class TestOracle:
    def test_three_agent_example(self):
        result = oracle_max_accept(make_instance(THREE_AGENTS))
        assert result.report.acceptance_count == 2
        tally = {(d.rule.id, d.outcome): c for d, c in result.tally}
        assert tally == {("r1", "A"): 2, ("r2", "B"): 2, ("r3", "A"): 1}
        # Tie-break: first maximizer in feasible_rules() order.
        assert result.report.decision.rule.id == "r1"

    def test_single_agent_single_rule(self):
        rules = (RuleRef("r1", "A"),)
        for agent, expected in [(spec(Y={"A"}), 1), (spec(Y={"B"}), 0)]:
            inst = make_instance([agent], rules=rules, outcomes=("A", "B"))
            result = oracle_max_accept(inst)
            assert result.report.acceptance_count == expected

    def test_report_is_consistent(self):
        inst = make_instance(THREE_AGENTS)
        report = oracle_max_accept(inst).report
        assert report.acceptance_count == len(report.accepted_by)
        assert report.accepted_by == {
            i for i, a in enumerate(inst.agents) if accepts(a, report.decision, inst)
        }
        assert report.acceptance_rate == Fraction(report.acceptance_count, inst.n)


class TestSubstitution:
    def test_absolute_disjunctive_is_identity(self):
        inst = make_instance([spec(R={"r1"}, Y={"B"})])
        agent = inst.agents[0]
        [(rule_ids, outcomes)] = substitute_absolute_disjunctivists(inst.agents, inst.rule_value)
        assert rule_ids is agent.rule_ids and outcomes is agent.outcomes

    def test_ii_disjunctive_collapses_to_realized(self):
        inst = make_instance([spec(R={"r2"}, Y={"A"}, ii=True)])
        [(rule_ids, outcomes)] = substitute_absolute_disjunctivists(inst.agents, inst.rule_value)
        assert outcomes == {"A", "B"} and not rule_ids

    def test_ii_conjunctive_intersects_realized(self):
        inst = make_instance([spec(R={"r2"}, Y={"A"}, conjunctive=True, ii=True)])
        [(rule_ids, outcomes)] = substitute_absolute_disjunctivists(inst.agents, inst.rule_value)
        assert outcomes == frozenset() and not rule_ids

    def test_absolute_conjunctive_filters_rules(self):
        inst = make_instance([spec(R={"r1", "r2"}, Y={"A"}, conjunctive=True)])
        [(rule_ids, outcomes)] = substitute_absolute_disjunctivists(inst.agents, inst.rule_value)
        assert rule_ids == {"r1"} and not outcomes

    def test_population_keeps_agent_order(self):
        agents = [
            spec(R={"r1", "r2"}, Y={"A"}, conjunctive=True),
            spec(R={"r2"}, Y={"A"}, ii=True),
            spec(Y={"C"}),
            spec(R={"r3"}, Y={"B"}, conjunctive=True, ii=True),
        ]
        inst = make_instance(agents)
        assert substitute_absolute_disjunctivists(inst.agents, inst.rule_value) == [
            ({"r1"}, frozenset()),
            (frozenset(), {"A", "B"}),
            (frozenset(), {"C"}),
            (frozenset(), frozenset()),
        ]

    def test_no_agents_give_no_pairs(self):
        assert substitute_absolute_disjunctivists((), make_instance(THREE_AGENTS).rule_value) == []

    def test_population_matches_each_agent_alone_and_accepts(self):
        # Random mixed populations, generic and adc (decided by ``accepts`` in
        # threshold space): the population's pairs are the agents' pairs taken
        # one at a time, and each pair accepts (r, y) exactly when ``accepts``
        # does, r a ``rule_value`` key.
        kinds = ["conseq", "abs_disj", "abs_conj", "ii_disj", "ii_conj"]
        checks = 0
        for seed in range(300):
            rng = random.Random(seed)
            generic = random_generic_instance(rng)
            n = rng.randint(2, 7)
            by_kind = [random_adc_instance(rng, n, kind) for kind in kinds]
            mixed = AdcInstance(
                by_kind[0].votes, [rng.choice(by_kind).agents[i] for i in range(n)]
            )
            for inst in (generic, mixed):
                values = inst.rule_value
                pairs = substitute_absolute_disjunctivists(inst.agents, values)
                alone = [substitute_absolute_disjunctivists([a], values) for a in inst.agents]
                assert [[pair] for pair in pairs] == alone
                for r in inst.feasible_rules():
                    d = Decision(RuleRef(r, values[r]), values[r])
                    for (rule_ids, outcomes), agent in zip(pairs, inst.agents):
                        through_pair = d.outcome in outcomes or r in rule_ids
                        assert through_pair == accepts(agent, d, inst), (seed, agent, d)
                        checks += 1
        assert checks > 4_000


class TestMechanisms:
    def test_all_disjunctive_matches_oracle_example(self):
        inst = make_instance(THREE_AGENTS)
        report = max_accept(inst)
        assert report.acceptance_count == 2
        assert report.decision.rule.id == "r1"
        assert report == oracle_max_accept(inst).report

    def test_all_types_identity_on_disjunctivists(self):
        agents = (
            spec(R={"r2"}, Y={"A"}, ii=True),
            spec(R={"r1", "r2"}, Y={"B"}, conjunctive=True),
            spec(Y={"B"}),
        )
        inst = make_instance(agents)
        substitutes = make_instance(substituted(agents, inst))
        assert max_accept(inst) == max_accept(substitutes)

    def test_all_types_mixed_matches_oracle(self):
        agents = (
            spec(R={"r2"}, Y={"A"}, ii=True),
            spec(R={"r1"}),
            spec(Y={"B"}),
        )
        inst = make_instance(agents)
        assert max_accept(inst) == oracle_max_accept(inst).report

    def test_all_ii_conjunctive_nothing_realized(self):
        agents = (spec(R={"r2"}, Y={"A"}, conjunctive=True, ii=True),) * 3
        inst = make_instance(agents)
        assert max_accept(inst).acceptance_count == 0

    def test_consequentialists(self):
        agents = (spec(Y={"A"}), spec(Y={"A"}), spec(Y={"B"}))
        report = max_accept(make_instance(agents))
        assert report.decision.outcome == "A" and report.acceptance_count == 2

    def test_consequentialists_nothing_realizable(self):
        rules = (RuleRef("r1", "A"),)
        inst = make_instance([spec(Y={"B"})], rules=rules, outcomes=("A", "B"))
        report = max_accept(inst)
        assert report.acceptance_count == 0
        assert report.decision in feasible_decisions(inst)

    def test_consequentialists_unanimity(self):
        inst = make_instance([spec(Y={"A"})] * 4)
        assert max_accept(inst).acceptance_count == 4

    def test_proceduralists(self):
        agents = (spec(R={"r1"}), spec(R={"r1"}), spec(R={"r2"}))
        report = max_accept(make_instance(agents))
        assert report.decision.rule.id == "r1" and report.acceptance_count == 2

    def test_proceduralists_all_empty(self):
        inst = make_instance([spec()] * 3)
        assert max_accept(inst).acceptance_count == 0

    def test_proceduralists_single_agent_all_rules(self):
        inst = make_instance([spec(R={"r1", "r2", "r3"})])
        assert max_accept(inst).acceptance_count == 1

    def test_conjunctivists(self):
        agents = (spec(R={"r1", "r2"}, Y={"B"}, conjunctive=True),) * 2
        report = max_accept(make_instance(agents))
        assert report.decision.rule.id == "r2" and report.acceptance_count == 2

    def test_conjunctivists_all_filtered_empty(self):
        agents = (spec(R={"r2"}, Y={"A"}, conjunctive=True),) * 2
        inst = make_instance(agents)
        assert max_accept(inst).acceptance_count == 0


# ---------------------------------------------------------------------------
# Property tests over random instances.

instances = st.integers(min_value=0, max_value=10**9).map(
    lambda seed: random_generic_instance(random.Random(seed))
)


@settings(max_examples=300, deadline=None)
@given(instances)
def test_substitution_preserves_acceptance(inst):
    for agent, sub in zip(inst.agents, substituted(inst.agents, inst)):
        for d in feasible_decisions(inst):
            assert accepts(agent, d, inst) == accepts(sub, d, inst)


@settings(max_examples=300, deadline=None)
@given(instances)
def test_substitution_idempotent(inst):
    subs = substituted(inst.agents, inst)
    assert substituted(subs, inst) == subs


@settings(max_examples=300, deadline=None)
@given(instances)
def test_disjunctive_acceptance_superset_of_conjunctive(inst):
    for agent in inst.agents:
        disj = SatisfyingSpec(agent.rule_ids, agent.outcomes, False,
                              agent.implementation_indifferent)
        conj = SatisfyingSpec(agent.rule_ids, agent.outcomes, True,
                              agent.implementation_indifferent)
        for d in feasible_decisions(inst):
            if accepts(conj, d, inst):
                assert accepts(disj, d, inst)


# ---------------------------------------------------------------------------
# The same three properties, proven exhaustively on small models.
#
# For one agent (R, Y, conjunctive, implementation_indifferent) and one
# decision (r, y), where y = v(r) is the outcome rule r selects, both
# ``accepts`` and acceptance through the substitute read only the two flags
# and three facts: a = y in Y, b = r in R, and c = some r' in R has
# v(r') = y. ``accepts`` combines a with b (absolute) or c (indifferent) by
# AND (conjunctive) or OR. The substitute accepts (r, y) when y is in Y' or
# r is in R', and each of its four forms decides that from the same facts:
# Y' = Y | v(R) holds y iff a or c, Y' = Y & v(R) iff a and c (Y' is empty
# when R is), R' = {r in R : v(r) in Y} holds r iff a and b, and the
# absolute disjunctivist keeps R and Y. So each side is a function of
# (flags, a, b, c), and a universe that realizes every feasible combination
# of the facts under every flag pair decides the properties for every
# instance. b implies c (take r' = r), so 6 of the 8 combinations are
# feasible; the tests assert that all 6 occur. Idempotence is a property of
# the substitute alone: it is an absolute disjunctivist, whose substitute is
# its own sets, and the universe reaches every branch that builds it.

SMALL_MODEL_SIZES = [(outcomes, rules) for outcomes in (2, 3) for rules in (3, 4)]
FEASIBLE_FACTS = {(a, b, c) for a in (False, True) for b in (False, True)
                  for c in (False, True) if c or not b}


def _subsets(items):
    return [frozenset(subset) for size in range(len(items) + 1)
            for subset in itertools.combinations(items, size)]


def small_models():
    """Every instance of 2-3 outcomes and 3-4 rules, all feasible, one per rule -> outcome map.

    Yields (instance, R, Y) for every subset R of the rules and Y of the outcomes.
    """
    for n_outcomes, n_rules in SMALL_MODEL_SIZES:
        outcomes = tuple("ABC"[:n_outcomes])
        rule_ids = tuple(f"r{i}" for i in range(n_rules))
        for values in itertools.product(outcomes, repeat=n_rules):
            rules = tuple(map(RuleRef, rule_ids, values))
            inst = make_instance((spec(),), rules=rules, outcomes=outcomes)
            for R in _subsets(rule_ids):
                for Y in _subsets(outcomes):
                    yield inst, R, Y


def test_substitution_preserves_acceptance_on_small_models():
    facts = {flags: set() for flags in itertools.product((False, True), repeat=2)}
    checks = 0
    for inst, R, Y in small_models():
        decisions = feasible_decisions(inst)
        agents = [spec(R, Y, *flags) for flags in facts]
        for flags, agent, sub in zip(facts, agents, substituted(agents, inst)):
            for d in decisions:
                y = d.outcome
                realized = any(inst.rule_value[r] == y for r in R)
                facts[flags].add((y in Y, d.rule.id in R, realized))
                assert accepts(agent, d, inst) == accepts(sub, d, inst), (agent, d)
                checks += 1
    assert all(seen == FEASIBLE_FACTS for seen in facts.values())
    assert checks == 206_080


def test_substitution_idempotent_on_small_models():
    for inst, R, Y in small_models():
        agents = [spec(R, Y, *flags) for flags in itertools.product((False, True), repeat=2)]
        subs = substituted(agents, inst)
        assert substituted(subs, inst) == subs


def test_conjunctive_acceptance_within_disjunctive_on_small_models():
    for inst, R, Y in small_models():
        decisions = feasible_decisions(inst)
        for ii in (False, True):
            conj, disj = spec(R, Y, True, ii), spec(R, Y, False, ii)
            for d in decisions:
                assert not accepts(conj, d, inst) or accepts(disj, d, inst), (conj, d)


# The type order of the seven ``AGENT_TYPES``: row type A, column type B, and
# "x" where, for every (R, Y) both types may fill, every decision A accepts B
# accepts too. Decided with ``accepts`` over the small-model universe above,
# which realizes every feasible combination of the facts a, b and c; an empty
# R forces b and c false, an empty Y forces a false. Types whose only shared
# sets are empty ones (a consequentialist and a proceduralist) accept nothing
# there, so each includes the other. The same table is in README.
TYPE_ORDER = {
    "consequentialist":       "x x x x . x .",
    "absolute_proceduralist": "x x x x . x .",
    "ii_proceduralist":       "x . x . . x .",
    "absolute_disjunctivist": "x x x x . x .",
    "absolute_conjunctivist": "x x x x x x x",
    "ii_disjunctivist":       "x . x . . x .",
    "ii_conjunctivist":       "x x x x . x x",
}


def test_type_order_on_small_models():
    names = list(AGENT_TYPES)
    included = {(a, b): True for a in names for b in names}
    compared = set()
    inst = None
    for model, R, Y in small_models():
        if model is not inst:
            inst, decisions = model, feasible_decisions(model)
        accepted = {}
        for name, (conj, ii, names_rules, names_outcomes) in AGENT_TYPES.items():
            if (names_rules or not R) and (names_outcomes or not Y):
                agent = spec(R, Y, conj, ii)
                accepted[name] = sum(
                    1 << j for j, d in enumerate(decisions) if accepts(agent, d, inst)
                )
        for a, mask in accepted.items():
            for b in accepted:
                compared.add((a, b))
                if included[a, b] and mask & ~accepted[b]:
                    included[a, b] = False
    assert len(compared) == len(names) ** 2
    assert list(TYPE_ORDER) == names
    table = {a: " ".join("x" if included[a, b] else "." for b in names) for a in names}
    assert table == TYPE_ORDER


adc_instances = st.builds(
    lambda seed, n, kind: adc_to_generic(random_adc_instance(random.Random(seed), n, kind)),
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=7),
    st.sampled_from(["conseq", "abs_disj", "abs_conj", "ii_disj", "ii_conj"]),
)


@settings(max_examples=700, deadline=None)
@given(st.one_of(instances, adc_instances))
def test_all_types_matches_oracle(inst):
    # The whole report: decision (so the tie-break), accepted_by and count.
    assert max_accept(inst) == oracle_max_accept(inst).report


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_tuple_list_and_set_fields_solve_like_frozensets(seed):
    rng = random.Random(seed)
    frozen = random_generic_instance(rng)
    agents = tuple(loosened(a, rng) for a in frozen.agents)
    inst = GenericInstance(
        frozen.outcomes, frozen.rules, frozen.feasible_outcomes, frozen.feasible_rule_ids, agents
    )
    assert inst.agents == frozen.agents
    report = max_accept(inst)
    assert report == max_accept(frozen) == oracle_max_accept(inst).report
