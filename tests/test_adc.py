"""Binary-choice instances: threshold arithmetic, validation, worked examples, the bridge."""

import itertools
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
    adc_to_generic,
    delta_of,
    majority_threshold,
    rule_id,
    rule_threshold,
    threshold_family,
    threshold_of,
    threshold_outcomes,
)
from acceptmax.bounds import _options_at, _realizable, shared_options
from acceptmax.core import (
    GenericInstance,
    RuleRef,
    ValidationError,
    max_accept,
    oracle_max_accept,
)

from conftest import (
    adc_accepts,
    adc_decisions,
    homogeneous_suite,
    loosened,
    random_adc_instance,
    reference_outcome,
)


def agent(R=(), Y=(), conjunctive=False, ii=False):
    return AdcAgent(frozenset(R), frozenset(Y), conjunctive, ii)


def solve(inst):
    return max_accept(inst)


def oracle_count(inst):
    return oracle_max_accept(adc_to_generic(inst)).report.acceptance_count


def threshold_oracle_count(inst):
    """Brute force over (threshold, outcome) pairs with the binary-choice predicate."""
    return max(
        sum(1 for a in inst.agents if adc_accepts(a, t, y, inst.votes_p))
        for t, y in adc_decisions(inst.votes_p, inst.feasible_thresholds)
    )


def reference_validation_message(agents, n):
    """The message ``AdcInstance`` must raise for these agents, or None if they are valid.

    Agents are checked in order, each for outcomes, then integer thresholds
    in [1, n], then (unless implementation-indifferent) family thresholds.
    """
    family = set(threshold_family(n))
    for idx, a in enumerate(agents):
        if any(y not in OUTCOMES for y in a.outcomes):
            return f"agent {idx} outcomes outside {{r, p}}"
        if any(type(t) is not int or not 1 <= t <= n for t in a.thresholds):
            return f"agent {idx} thresholds must be integers in [1, {n}]"
        if not a.implementation_indifferent and any(t not in family for t in a.thresholds):
            return (
                f"agent {idx} is not implementation-indifferent; "
                "thresholds must be feasible-family members"
            )
    return None


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
        assert threshold_outcomes(5, 3)[3] == PROPOSAL
        assert threshold_outcomes(5, 4)[5] == STATUS_QUO
        assert threshold_outcomes(5, 4)[4] == PROPOSAL

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
                assert reference_outcome(t, v) == expected
                assert threshold_outcomes(n, v)[t] == expected

    @pytest.mark.parametrize("n", range(2, 10))
    def test_threshold_outcomes_is_supermajority_outcome(self, n):
        for v in range(n + 1):
            assert threshold_outcomes(n, v) == {
                t: reference_outcome(t, v) for t in range(1, n + 1)
            }
            # The bridge pairs the lookup's keys with its values in this order.
            assert list(threshold_outcomes(n, v)) == list(range(1, n + 1))

    @pytest.mark.parametrize("n", [2, 9, 10, 123])
    def test_rule_threshold_inverts_rule_ids(self, n):
        ids = [rule_id(t) for t in range(1, n + 1)]
        assert ids == [f"t{t}" for t in range(1, n + 1)]
        assert [rule_threshold(rid) for rid in ids] == list(range(1, n + 1))

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

    def test_tuple_valued_agents_are_checked_like_frozensets(self):
        good = AdcAgent((2, 3), ("p",), False, False)
        AdcInstance(("p", "p", "r"), (good, AdcAgent((1,), ("r",), False, True), good))
        bad = AdcAgent((1,), ("r",), False, False)
        with pytest.raises(ValidationError, match="^agent 1 is not implementation-indifferent"):
            AdcInstance(("p", "p", "r"), (good, bad, good))

    def test_ii_agent_with_tuple_fields_is_solved(self):
        inst = AdcInstance(("p", "p", "r"), (AdcAgent((2,), ("p",), False, True),) * 3)
        assert max_accept(inst) == oracle_max_accept(adc_to_generic(inst)).report

    def test_repeated_outcome_counts_once(self):
        agents = (
            AdcAgent((), ("p", "p"), False, False),
            AdcAgent((3,), (), False, False),
            AdcAgent((), (), False, False),
        )
        inst = AdcInstance(("p", "p", "r"), agents)
        report = max_accept(inst)
        assert report == oracle_max_accept(adc_to_generic(inst)).report
        assert report.decision.rule.id == "t3" and report.acceptance_count == 1

    def test_loose_fields_are_stored_as_frozensets(self):
        kept = agent(R={2}, Y={PROPOSAL})
        agents = (kept, AdcAgent([3, 3], {STATUS_QUO}, True, False), agent(ii=True))
        inst = AdcInstance(("p", "p", "r"), agents)
        assert inst.agents[0] is kept and inst.agents[2] is agents[2]
        assert type(inst.agents[1]) is AdcAgent
        assert inst.agents[1] == agent(R={3}, Y={STATUS_QUO}, conjunctive=True)
        assert all(type(a.thresholds) is type(a.outcomes) is frozenset for a in inst.agents)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=0, max_value=3),
    )
    def test_planted_bad_elements_get_the_reference_message(self, seed, n, plants):
        rng = random.Random(seed)
        family = list(threshold_family(n))
        agents = []
        for _ in range(n):
            ii = rng.random() < 0.5
            pool = range(1, n + 1) if ii else family
            agents.append(
                [
                    {t for t in pool if rng.random() < 0.4},
                    {o for o in OUTCOMES if rng.random() < 0.5},
                    rng.random() < 0.5,
                    ii,
                ]
            )
        for _ in range(plants):
            thresholds, outcomes, _, ii = rng.choice(agents)
            bad = rng.choice(["float", "bool", "str", "zero", "n+1", "sub-majority", "outcome"])
            if bad == "outcome":
                outcomes.add(rng.choice(["x", "", 0, "R"]))
            elif bad == "sub-majority" and not ii:
                thresholds.add(rng.randrange(1, majority_threshold(n)))
            else:
                thresholds.add(
                    {
                        "float": float(rng.randint(1, n)),
                        "bool": rng.random() < 0.5,
                        "str": str(rng.randint(1, n)),
                        "zero": 0,
                        "n+1": n + 1,
                        "sub-majority": 1,  # on an ii agent: valid
                    }[bad]
                )
        agents = tuple(AdcAgent(frozenset(R), frozenset(Y), c, ii) for R, Y, c, ii in agents)
        votes = tuple(rng.choice(OUTCOMES) for _ in range(n))
        expected = reference_validation_message(agents, n)
        if expected is None:
            assert AdcInstance(votes, agents).agents == agents
        else:
            with pytest.raises(ValidationError) as exc:
                AdcInstance(votes, agents)
            assert str(exc.value) == expected

    def test_float_feasible_threshold_rejected(self):
        with pytest.raises(ValidationError, match="feasible thresholds"):
            AdcInstance(("p", "p", "r"), (agent(),) * 3, frozenset({2.0}))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_realizable_outcomes(self, n):
        # Over the family (majority to unanimity): every rule selects p when
        # all back it and r when less than a majority does; otherwise majority
        # selects p and unanimity r.
        majority = n // 2 + 1
        for votes_p in range(n + 1):
            expected = {"p"} if votes_p == n else {"r"} if votes_p < majority else {"p", "r"}
            assert _realizable(threshold_outcomes(n, votes_p)) == expected, votes_p


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


class TestThresholdTally:
    """``max_accept`` on an ``AdcInstance`` gives the bridged instance's whole report."""

    def assert_as_bridged(self, inst):
        report = solve(inst)
        generic = adc_to_generic(inst)
        assert report == max_accept(generic) == oracle_max_accept(generic).report
        return report

    def test_no_votes_for_proposal(self):
        # votes_p = 0: every threshold selects r, so no feasible rule selects p.
        inst = AdcInstance(
            ("r",) * 4, (agent(Y={PROPOSAL}), agent(R={4}), agent(R={4}), agent(R={3}))
        )
        report = self.assert_as_bridged(inst)
        assert report.decision.rule == RuleRef("t4", STATUS_QUO)
        assert report.accepted_by == {1, 2}

    def test_all_votes_for_proposal(self):
        # votes_p = n: every threshold selects p, so no feasible rule selects r.
        inst = AdcInstance(
            ("p",) * 4,
            (agent(Y={STATUS_QUO}), agent(R={3}), agent(R={4}), agent(R={4}, Y={PROPOSAL})),
        )
        report = self.assert_as_bridged(inst)
        assert report.decision.rule == RuleRef("t3", PROPOSAL)  # t3 ties t4; smallest wins
        assert report.accepted_by == {1, 3}

    @pytest.mark.parametrize("votes_p", range(7))
    def test_all_ties_go_to_status_quo_then_smallest_t(self, votes_p):
        inst = AdcInstance(
            (PROPOSAL,) * votes_p + (STATUS_QUO,) * (6 - votes_p),
            (agent(Y=OUTCOMES),) * 6,
        )
        family = list(threshold_family(6))
        assert inst.feasible_rules == tuple(
            [t for t in family if t > votes_p] + [t for t in family if t <= votes_p]
        )
        report = self.assert_as_bridged(inst)
        t = inst.feasible_rules[0]
        expected = STATUS_QUO if votes_p < 6 else PROPOSAL
        assert report.decision.rule == RuleRef(f"t{t}", expected)
        assert report.acceptance_count == 6


class TestThresholdOracle:
    """``oracle_max_accept`` on an ``AdcInstance`` gives the bridged instance's whole result.

    The report and the tally, rule ids ``t<t>`` included: the oracle decides
    each agent with ``accepts`` in threshold space, and the bridge restates
    the same instance in the generic model.
    """

    TYPES = (  # acceptance criterion 1's five
        "consequentialist",
        "absolute_disjunctivist",
        "absolute_conjunctivist",
        "ii_disjunctivist",
        "ii_conjunctivist",
    )

    def test_exhaustive_homogeneous_suites(self):
        checked = 0
        for name in self.TYPES:
            for n in (2, 3):
                def options_for(votes_p, vote, listing=shared_options((name,), n), n=n):
                    return _options_at(listing, n, votes_p)

                for inst in homogeneous_suite(n, options_for):
                    assert oracle_max_accept(inst) == oracle_max_accept(adc_to_generic(inst))
                    checked += 1
        assert checked == 22_236

    def test_mixed_sparse_feasible_sets(self):
        sub_majority = 0
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randint(2, 7)
            per_kind = [random_adc_instance(rng, n, kind) for kind in KINDS]
            family = list(threshold_family(n))
            inst = AdcInstance(
                per_kind[0].votes,
                tuple(rng.choice(per_kind).agents[i] for i in range(n)),
                frozenset(rng.sample(family, rng.randint(1, len(family)))),
            )
            sub_majority += any(min(a.thresholds, default=n) < family[0] for a in inst.agents)
            assert oracle_max_accept(inst) == oracle_max_accept(adc_to_generic(inst)), seed
        assert sub_majority > 100


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
            inst = AdcInstance(("p",) * votes_p + ("r",) * (n - votes_p), (agent(),) * n)
            assert adc_to_generic(inst).rules == tuple(
                RuleRef(f"t{t}", reference_outcome(t, votes_p)) for t in range(1, n + 1)
            )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_feasible_rules_in_the_bridged_order(self, n):
        family = list(threshold_family(n))
        subsets = [
            frozenset(c) for size in range(1, len(family) + 1)
            for c in itertools.combinations(family, size)
        ]
        for votes_p in range(n + 1):
            votes = (PROPOSAL,) * votes_p + (STATUS_QUO,) * (n - votes_p)
            for feasible in subsets:
                inst = AdcInstance(votes, (agent(),) * n, feasible)
                generic = adc_to_generic(inst)
                assert tuple(map(rule_id, inst.feasible_rules)) == generic.feasible_rules

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
    assert report.decision.outcome == reference_outcome(t, inst.votes_p)


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
    rebuilt = GenericInstance(
        outcomes=generic.outcomes,
        rules=generic.rules,
        feasible_outcomes=generic.feasible_outcomes,
        feasible_rule_ids=generic.feasible_rule_ids,
        agents=generic.agents,
    )
    assert rebuilt == generic


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=9),
    st.sampled_from(KINDS + ["mixed"]),
)
def test_threshold_tally_equals_bridged_tally(seed, n, kind):
    """``solve`` tallies the adc instance itself: the same whole report as its bridge."""
    rng = random.Random(seed)
    per_kind = [random_adc_instance(rng, n, k) for k in (KINDS if kind == "mixed" else [kind])]
    family = list(threshold_family(n))
    inst = AdcInstance(
        per_kind[0].votes,
        tuple(rng.choice(per_kind).agents[i] for i in range(n)),
        frozenset(rng.sample(family, rng.randint(1, len(family)))),
    )
    assert max_accept(inst) == max_accept(adc_to_generic(inst))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=7),
    st.sampled_from(KINDS),
)
def test_tuple_list_and_set_fields_solve_like_frozensets(seed, n, kind):
    rng = random.Random(seed)
    frozen = random_adc_instance(rng, n, kind)
    agents = tuple(loosened(a, rng) for a in frozen.agents)
    inst = AdcInstance(frozen.votes, agents, frozen.feasible_thresholds)
    assert inst.agents == frozen.agents
    report = max_accept(inst)
    assert report == max_accept(frozen) == oracle_max_accept(adc_to_generic(inst)).report
