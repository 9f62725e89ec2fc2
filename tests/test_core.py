"""Generic model: acceptance predicate, substitution, mechanisms vs. the oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from acceptmax.adc import adc_to_generic
from acceptmax.core import (
    Decision,
    GenericInstance,
    RuleRef,
    SatisfyingSpec,
    ValidationError,
    accepts,
    make_report,
    max_accept,
    oracle_max_accept,
    substitute_absolute_disjunctivist,
)

from conftest import random_adc_instance, random_generic_instance, substituted


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

    def test_no_feasible_decision_rejected(self):
        with pytest.raises(ValidationError):
            GenericInstance(
                outcomes=("A", "B"),
                rules=(RuleRef("r1", "A"),),
                feasible_outcomes=frozenset({"B"}),
                feasible_rule_ids=frozenset({"r1"}),
                agents=(spec(),),
            )

    def test_feasible_decisions_canonical_order(self):
        inst = make_instance([spec()])
        keys = [(d.outcome, d.rule.id) for d in inst.feasible_decisions()]
        assert keys == [("A", "r1"), ("A", "r3"), ("B", "r2")]
        # Declared order, not string order: outcomes first, then rules.
        rules = (RuleRef("r10", "B"), RuleRef("r9", "A"), RuleRef("r2", "B"))
        inst = make_instance([spec()], rules=rules, outcomes=("B", "A"))
        keys = [(d.outcome, d.rule.id) for d in inst.feasible_decisions()]
        assert keys == [("B", "r10"), ("B", "r2"), ("A", "r9")]


class TestRecords:
    """Rules and specs are immutable values: equal fields, equal and same hash."""

    @pytest.mark.parametrize(
        "record, field",
        [
            (RuleRef("r1", "A"), "id"),
            (RuleRef("r1", "A"), "value_at_profile"),
            (spec(R={"r1"}, Y={"A"}), "rule_ids"),
            (spec(R={"r1"}, Y={"A"}), "outcomes"),
            (spec(R={"r1"}, Y={"A"}), "conjunctive"),
            (spec(R={"r1"}, Y={"A"}), "implementation_indifferent"),
        ],
    )
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_equal_fields_equal_and_same_hash(self):
        assert RuleRef("r1", "A") == RuleRef("r1", "A")
        assert hash(RuleRef("r1", "A")) == hash(RuleRef("r1", "A"))
        assert RuleRef("r1", "A") != RuleRef("r1", "B")
        a = SatisfyingSpec(frozenset({"r1"}), frozenset({"A"}), True, False)
        b = spec(R={"r1"}, Y={"A"}, conjunctive=True)
        assert a == b and hash(a) == hash(b)
        assert a != spec(R={"r1"}, Y={"A"})

    def test_flags_default_to_false(self):
        agent = SatisfyingSpec(frozenset(), frozenset({"A"}))
        assert agent.conjunctive is False
        assert agent.implementation_indifferent is False

    def test_rules_sort_by_id_then_value(self):
        rules = [RuleRef("r2", "A"), RuleRef("r1", "B"), RuleRef("r1", "A"), RuleRef("r10", "A")]
        assert sorted(rules) == [
            RuleRef("r1", "A"), RuleRef("r1", "B"), RuleRef("r10", "A"), RuleRef("r2", "A")
        ]


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
        # Tie-break: first maximizer in feasible_decisions() order.
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
        assert report == make_report(inst, report.decision)


class TestSubstitution:
    def test_absolute_disjunctive_is_identity(self):
        inst = make_instance([spec(R={"r1"}, Y={"B"})])
        agent = inst.agents[0]
        rule_ids, outcomes = substitute_absolute_disjunctivist(agent, inst.rule_value)
        assert rule_ids is agent.rule_ids and outcomes is agent.outcomes

    def test_ii_disjunctive_collapses_to_realized(self):
        inst = make_instance([spec(R={"r2"}, Y={"A"}, ii=True)])
        rule_ids, outcomes = substitute_absolute_disjunctivist(inst.agents[0], inst.rule_value)
        assert outcomes == {"A", "B"} and not rule_ids

    def test_ii_conjunctive_intersects_realized(self):
        inst = make_instance([spec(R={"r2"}, Y={"A"}, conjunctive=True, ii=True)])
        rule_ids, outcomes = substitute_absolute_disjunctivist(inst.agents[0], inst.rule_value)
        assert outcomes == frozenset() and not rule_ids

    def test_absolute_conjunctive_filters_rules(self):
        inst = make_instance([spec(R={"r1", "r2"}, Y={"A"}, conjunctive=True)])
        rule_ids, outcomes = substitute_absolute_disjunctivist(inst.agents[0], inst.rule_value)
        assert rule_ids == {"r1"} and not outcomes


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
        substitutes = make_instance([substituted(a, inst) for a in agents])
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
        assert report.decision in inst.feasible_decisions()

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
    for agent in inst.agents:
        sub = substituted(agent, inst)
        for d in inst.feasible_decisions():
            assert accepts(agent, d, inst) == accepts(sub, d, inst)


@settings(max_examples=300, deadline=None)
@given(instances)
def test_substitution_idempotent(inst):
    for agent in inst.agents:
        sub = substituted(agent, inst)
        assert substituted(sub, inst) == sub


@settings(max_examples=300, deadline=None)
@given(instances)
def test_disjunctive_acceptance_superset_of_conjunctive(inst):
    for agent in inst.agents:
        disj = SatisfyingSpec(agent.rule_ids, agent.outcomes, False,
                              agent.implementation_indifferent)
        conj = SatisfyingSpec(agent.rule_ids, agent.outcomes, True,
                              agent.implementation_indifferent)
        for d in inst.feasible_decisions():
            if accepts(conj, d, inst):
                assert accepts(disj, d, inst)


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
