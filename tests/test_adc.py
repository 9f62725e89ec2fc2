"""Binary-choice instances: threshold arithmetic, validation, worked examples, the bridge."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acceptmax.adc import (
    OUTCOMES,
    PROPOSAL,
    STATUS_QUO,
    AdcAgent,
    AdcInstance,
    _rule_ids,
    _rule_universe,
    _rules_by_outcome,
    adc_to_generic,
    delta_of,
    majority_threshold,
    rule_threshold,
    supermajority_outcome,
    threshold_family,
    threshold_of,
    threshold_outcomes,
)
from acceptmax.bounds import _realizable_feasible
from acceptmax.core import (
    GenericInstance,
    RuleRef,
    ValidationError,
    max_accept,
    oracle_max_accept,
)

from conftest import adc_accepts, adc_decisions, random_adc_instance


def agent(R=(), Y=(), conjunctive=False, ii=False):
    return AdcAgent(frozenset(R), frozenset(Y), conjunctive, ii)


def solve(inst):
    return max_accept(adc_to_generic(inst))


def oracle_count(inst):
    return oracle_max_accept(adc_to_generic(inst)).report.acceptance_count


def threshold_oracle_count(inst):
    """Brute force over (threshold, outcome) pairs with the binary-choice predicate."""
    return max(
        sum(1 for a in inst.agents if adc_accepts(a, t, y, inst.votes_p))
        for t, y in adc_decisions(inst.n, inst.votes_p, inst.feasible_thresholds)
    )


class TestAgentRecord:
    """An ``AdcAgent`` is an immutable value: equal fields, equal and same hash."""

    @pytest.mark.parametrize(
        "field", ["thresholds", "outcomes", "conjunctive", "implementation_indifferent"]
    )
    def test_fields_cannot_be_assigned(self, field):
        a = agent(R={2}, Y={PROPOSAL})
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))

    def test_equal_fields_equal_and_same_hash(self):
        a = AdcAgent(frozenset({2, 3}), frozenset({PROPOSAL}), True, False)
        b = agent(R={3, 2}, Y={PROPOSAL}, conjunctive=True)
        assert a == b and hash(a) == hash(b)
        assert a != agent(R={2, 3}, Y={PROPOSAL})

    def test_flags_default_to_false(self):
        a = AdcAgent(frozenset({2}), frozenset())
        assert a.conjunctive is False
        assert a.implementation_indifferent is False


class TestThresholds:
    def test_supermajority_outcome(self):
        assert supermajority_outcome(3, 3, 5) == PROPOSAL
        assert supermajority_outcome(5, 4, 5) == STATUS_QUO
        assert supermajority_outcome(4, 4, 5) == PROPOSAL

    def test_supermajority_outcome_range_checks(self):
        with pytest.raises(ValidationError):
            supermajority_outcome(0, 2, 5)
        with pytest.raises(ValidationError):
            supermajority_outcome(6, 2, 5)
        with pytest.raises(ValidationError):
            supermajority_outcome(3, 6, 5)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_family_size(self, n):
        assert len(threshold_family(n)) == (n + 1) // 2
        assert min(threshold_family(n)) == majority_threshold(n)
        assert max(threshold_family(n)) == n

    @pytest.mark.parametrize("n", range(2, 10))
    def test_delta_round_trip(self, n):
        for t in range(1, n + 1):
            assert threshold_of(delta_of(t, n), n) == t

    def test_common_fractional_thresholds(self):
        assert threshold_of(Fraction(1, 2), 3) == 2
        assert threshold_of(Fraction(2, 3), 3) == 3
        assert threshold_of(Fraction(1, 2), 4) == 3

    @pytest.mark.parametrize("n", range(2, 10))
    def test_threshold_delta_consistency(self, n):
        # t selects p exactly when strictly more than delta(t) * n agents back p.
        for t in range(1, n + 1):
            for v in range(n + 1):
                expected = PROPOSAL if v > delta_of(t, n) * n else STATUS_QUO
                assert supermajority_outcome(t, v, n) == expected

    @pytest.mark.parametrize("n", range(2, 10))
    def test_threshold_outcomes_is_supermajority_outcome(self, n):
        for v in range(n + 1):
            assert threshold_outcomes(n, v) == {
                t: supermajority_outcome(t, v, n) for t in range(1, n + 1)
            }

    @pytest.mark.parametrize("n", [2, 9, 10, 123])
    def test_rule_threshold_inverts_rule_ids(self, n):
        assert [rule_threshold(rid) for rid in _rule_ids(n).values()] == list(range(1, n + 1))

    def test_threshold_of_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            threshold_of(Fraction(1), 3)
        with pytest.raises(ValidationError):
            threshold_of(Fraction(-1, 2), 3)


class TestInstanceValidation:
    def test_non_ii_agent_needs_family_thresholds(self):
        with pytest.raises(ValidationError):
            AdcInstance(("p", "p", "r"), (agent(R={1}),) * 3)

    def test_ii_agent_may_reference_sub_majority(self):
        inst = AdcInstance(("p", "p", "r"), (agent(R={1}, ii=True),) * 3)
        assert inst.votes_p == 2

    @pytest.mark.parametrize(
        "bad, message",
        [
            (agent(Y={"x"}, ii=True), "agent 1 outcomes outside {r, p}"),
            (agent(R={0}, ii=True), "agent 1 thresholds must be integers in [1, 3]"),
            (agent(R={4}, ii=True), "agent 1 thresholds must be integers in [1, 3]"),
            (agent(R={"2"}, ii=True), "agent 1 thresholds must be integers in [1, 3]"),
            (agent(R={1}), "agent 1 is not implementation-indifferent"),
        ],
    )
    def test_first_bad_agent_is_named(self, bad, message):
        agents = (agent(R={1, 2}, ii=True), bad, agent(R={3, 4}))
        with pytest.raises(ValidationError) as exc:
            AdcInstance(("p", "p", "r"), agents)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("ii", [False, True])
    def test_float_threshold_after_equal_int_rejected(self, ii):
        # The union of all threshold sets is {2, 3}: only a per-element check sees 2.0.
        agents = (agent(R={2}, ii=ii), agent(R=frozenset({2.0}), ii=ii), agent(R={3}, ii=ii))
        with pytest.raises(ValidationError, match=r"agent 1 thresholds must be integers"):
            AdcInstance(("p", "p", "r"), agents)

    def test_float_feasible_threshold_rejected(self):
        with pytest.raises(ValidationError, match="feasible thresholds"):
            AdcInstance(("p", "p", "r"), (agent(),) * 3, frozenset({2.0}))

    def test_realizable_outcomes(self):
        inst = AdcInstance(("p", "p", "r"), (agent(),) * 3)
        assert _realizable_feasible(3, inst.votes_p, inst.feasible_thresholds) == {"p", "r"}
        unanimous = AdcInstance(("p", "p", "p"), (agent(),) * 3)
        assert _realizable_feasible(
            3, unanimous.votes_p, unanimous.feasible_thresholds
        ) == {"p"}


class TestConsequentialists:
    def test_unanimous_p(self):
        inst = AdcInstance(("p", "p", "p"), (agent(Y={"p"}),) * 3)
        report = solve(inst)
        assert report.decision.outcome == PROPOSAL
        assert report.acceptance_count == 3

    def test_majority_p(self):
        agents = (agent(Y={"p"}), agent(Y={"p"}), agent(Y={"r"}))
        report = solve(AdcInstance(("p", "p", "r"), agents))
        assert report.decision.rule.id == "t2"
        assert report.decision.outcome == PROPOSAL
        assert report.acceptance_count == 2

    def test_minority_p_forces_status_quo(self):
        agents = (agent(Y={"p"}), agent(Y={"r"}), agent(Y={"r"}))
        report = solve(AdcInstance(("p", "r", "r"), agents))
        assert report.decision.outcome == STATUS_QUO

    def test_tie_keeps_status_quo(self):
        agents = (agent(Y={"p"}), agent(Y={"p"}), agent(Y={"r"}), agent(Y={"r"}))
        report = solve(AdcInstance(("p", "p", "p", "r"), agents))
        assert report.decision.outcome == STATUS_QUO
        assert report.acceptance_count == 2


class TestAbsoluteDisjunctivists:
    def test_worked_example(self):
        agents = (agent(Y={"p"}, R={2}), agent(R={3}), agent(Y={"r"}))
        report = solve(AdcInstance(("p", "p", "r"), agents))
        assert report.decision.rule.id == "t3"
        assert report.decision.outcome == STATUS_QUO
        assert report.acceptance_count == 2

    def test_unanimous_p_forces_proposal(self):
        agents = (agent(Y={"r"}, R={3, 4}), agent(Y={"r"}, R={3}), agent(Y={"r"}),
                  agent(Y={"r"}))
        inst = AdcInstance(("p",) * 4, agents)
        report = solve(inst)
        assert report.decision.outcome == PROPOSAL
        # Only rule-based acceptance is possible; t3 sits in two rule sets.
        assert report.decision.rule.id == "t3"
        assert report.acceptance_count == 2 == oracle_count(inst)

    def test_all_majority_rule(self):
        agents = (agent(R={2}),) * 3
        report = solve(AdcInstance(("p", "p", "r"), agents))
        assert report.decision.rule.id == "t2"
        assert report.acceptance_count == 3


class TestIiDisjunctivists:
    def test_worked_example_tie_keeps_status_quo(self):
        agents = (
            agent(Y={"p"}, R={threshold_of(Fraction(1, 2), 3)}, ii=True),
            agent(Y={"p"}, R={threshold_of(Fraction(2, 3), 3)}, ii=True),
            agent(Y={"r"}, R={threshold_of(Fraction(2, 3), 3)}, ii=True),
        )
        inst = AdcInstance(("p", "p", "r"), agents)
        report = solve(inst)
        assert report.decision.outcome == STATUS_QUO
        assert report.acceptance_count == 2 == oracle_count(inst)

    def test_everyone_accepts_both_outcomes(self):
        # One acceptable outcome plus a rule realizing the other one.
        agents = (
            agent(Y={"p"}, R={3}, ii=True),
            agent(Y={"r"}, R={2}, ii=True),
            agent(Y={"p"}, R={3}, ii=True),
        )
        report = solve(AdcInstance(("p", "p", "r"), agents))
        assert report.acceptance_count == 3

    def test_no_rules_degenerates_to_consequentialists(self):
        votes = ("p", "p", "r")
        agents = tuple(agent(Y={v}, ii=True) for v in votes)
        conseq = tuple(agent(Y={v}) for v in votes)
        report = solve(AdcInstance(votes, agents))
        assert report == solve(AdcInstance(votes, conseq))


class TestIiConjunctivists:
    def test_worked_example_matches_oracle(self):
        agents = (
            agent(Y={"p"}, R={2}, conjunctive=True, ii=True),
            agent(Y={"r"}, R={3}, conjunctive=True, ii=True),
            agent(Y={"p"}, R={2}, conjunctive=True, ii=True),
        )
        inst = AdcInstance(("p", "p", "r"), agents)
        report = solve(inst)
        assert report.acceptance_count == oracle_count(inst) == 2
        assert report.decision.outcome == PROPOSAL

    def test_both_conjuncts_required(self):
        inst = AdcInstance(
            ("p", "p", "r"),
            (agent(Y={"r"}, R={3}, conjunctive=True, ii=True),
             agent(Y={"r"}, R={2}, conjunctive=True, ii=True),  # rule realizes p only
             agent(R={3}, conjunctive=True, ii=True)),  # empty outcome set
        )
        report = solve(inst)
        assert report.decision.outcome == STATUS_QUO
        assert report.accepted_by == {0}


class TestBridge:
    def test_rule_values(self):
        inst = AdcInstance(("p", "p", "r"), (agent(),) * 3)
        generic = adc_to_generic(inst)
        assert generic.rule_value == {"t1": "p", "t2": "p", "t3": "r"}
        assert generic.feasible_rule_ids == {"t2", "t3"}

    def test_family_size_four_agents(self):
        inst = AdcInstance(("p", "p", "r", "r"), (agent(),) * 4)
        assert sorted(adc_to_generic(inst).feasible_rule_ids) == ["t3", "t4"]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_rule_universe_values_every_threshold(self, n):
        for votes_p in range(n + 1):
            assert _rule_universe(n, votes_p) == tuple(
                RuleRef(f"t{t}", supermajority_outcome(t, votes_p, n)) for t in range(1, n + 1)
            )

    def test_rule_universe_cached_once_per_n(self):
        _rules_by_outcome.cache_clear()
        n = 5
        for votes_p in range(n + 1):
            votes = (PROPOSAL,) * votes_p + (STATUS_QUO,) * (n - votes_p)
            solve(AdcInstance(votes, (agent(Y={PROPOSAL}),) * n))
        assert _rules_by_outcome.cache_info().currsize == 1

    def test_sub_majority_thresholds_stay_infeasible(self):
        inst = AdcInstance(("p", "p", "r"), (agent(R={1}, ii=True),) * 3)
        generic = adc_to_generic(inst)
        assert "t1" in generic.rule_value and "t1" not in generic.feasible_rule_ids


KINDS = ["conseq", "abs_disj", "abs_conj", "ii_disj", "ii_conj"]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=7),
    st.sampled_from(KINDS),
)
def test_mechanism_count_equals_oracle(seed, n, kind):
    inst = random_adc_instance(random.Random(seed), n, kind)
    report = solve(inst)
    assert report.acceptance_count == threshold_oracle_count(inst) == oracle_count(inst)
    t = int(report.decision.rule.id.lstrip("t"))
    assert t in inst.feasible_thresholds
    assert report.decision.outcome == supermajority_outcome(t, inst.votes_p, n)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=6),
    st.sampled_from(["abs_conj", "ii_conj", "ii_disj"]),
)
def test_bridge_oracle_agrees_with_fast_oracle(seed, n, kind):
    inst = random_adc_instance(random.Random(seed), n, kind)
    assert threshold_oracle_count(inst) == oracle_count(inst)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=9),
    st.sampled_from(KINDS),
)
def test_bridge_rule_ids_name_thresholds(seed, n, kind):
    rng = random.Random(seed)
    inst = random_adc_instance(rng, n, kind)
    family = list(threshold_family(n))
    feasible = frozenset(rng.sample(family, rng.randint(1, len(family))))
    inst = AdcInstance(inst.votes, inst.agents, feasible)
    generic = adc_to_generic(inst)
    assert [r.id for r in generic.rules] == [f"t{t}" for t in range(1, n + 1)]
    for adc_agent, spec in zip(inst.agents, generic.agents):
        assert spec.rule_ids == {f"t{t}" for t in adc_agent.thresholds}
    assert generic.feasible_rule_ids == {f"t{t}" for t in feasible}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=9),
    st.sampled_from(KINDS),
)
def test_trusted_bridge_passes_validation(seed, n, kind):
    """The bridge skips ``GenericInstance``'s checks; rebuilding through them must pass."""
    rng = random.Random(seed)
    inst = random_adc_instance(rng, n, kind)
    family = list(threshold_family(n))
    feasible = frozenset(rng.sample(family, rng.randint(1, len(family))))
    generic = adc_to_generic(AdcInstance(inst.votes, inst.agents, feasible))
    rebuilt = GenericInstance(
        outcomes=generic.outcomes,
        rules=generic.rules,
        feasible_outcomes=generic.feasible_outcomes,
        feasible_rule_ids=generic.feasible_rule_ids,
        agents=generic.agents,
    )
    assert rebuilt == generic
