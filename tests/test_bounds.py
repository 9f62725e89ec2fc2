"""Worst-case acceptance rates: closed forms, enumeration reductions, the exact search."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acceptmax.adc import (
    OUTCOMES,
    PROPOSAL,
    AdcAgent,
    AdcInstance,
    adc_to_generic,
    majority_threshold,
    threshold_family,
    threshold_outcomes,
)
from acceptmax.bounds import (
    CLASSES,
    _branch_and_bound,
    _decision_bits,
    _kind_options,
    _pareto_minimal,
    _threshold_rank,
    agent_options,
    class_predicate,
    table1_formula,
    worst_case_rate,
)
from acceptmax.core import ValidationError, max_accept, oracle_max_accept
from acceptmax.serialize import bounds_report_to_dict, dumps

from conftest import (
    adc_accepts,
    adc_decisions,
    enumerate_instances,
    majority_count,
    random_adc_instance,
)


def oracle_count(inst):
    return oracle_max_accept(adc_to_generic(inst)).report.acceptance_count


def best_count(inst):
    return max_accept(inst).acceptance_count


class TestFormula:
    def test_fixed_rows(self):
        assert table1_formula("any-none", 5) == 0
        assert table1_formula("abs-conj-consistent", 4) == 0
        assert table1_formula("abs-disj-r1", 5) == Fraction(2, 5)
        assert table1_formula("abs-conj-realizable", 6) == Fraction(2, 6)
        assert table1_formula("ii-disj-last", 3) == 1

    def test_k_row(self):
        assert table1_formula("abs-disj-k", 7, k=2) == Fraction(4, 7)
        assert table1_formula("abs-disj-k", 7, k=1) == Fraction(2, 7)
        assert table1_formula("abs-disj-k", 4, k=2) == 1

    def test_half_rows_per_size(self):
        for class_id in ("abs-disj-y1", "ii-conj-realizable", "ii-disj-r1",
                         "ii-disj-y1", "conseq-y1", "conseq-consistent"):
            assert table1_formula(class_id, 4) == Fraction(1, 2)
            assert table1_formula(class_id, 5) == Fraction(3, 5)

    def test_k_required(self):
        with pytest.raises(ValidationError):
            table1_formula("abs-disj-k", 5)
        with pytest.raises(ValidationError):
            table1_formula("abs-disj-k", 5, k=99)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            table1_formula("any-none", 1)


class TestEnumeration:
    def test_any_class_includes_all_empty_instance(self):
        empty = AdcAgent(frozenset(), frozenset(), False, False)
        assert any(
            all(a == empty for a in inst.agents)
            for inst in enumerate_instances("any-none", 2)
        )

    def test_enumerated_instances_satisfy_predicate(self):
        feasible = frozenset(threshold_family(3))
        for class_id in ("abs-disj-k", "ii-conj-realizable", "conseq-consistent"):
            k = 1 if CLASSES[class_id].needs_k else None
            seen = 0
            for inst in enumerate_instances(class_id, 3, k):
                for agent, vote in zip(inst.agents, inst.votes):
                    assert class_predicate(
                        class_id, agent, 3, inst.votes_p, feasible, vote, k
                    )
                seen += 1
            assert seen > 0


def full_kind_options(agent_kind, n):
    """Agent options without the representative-set reduction."""
    y_subsets = [frozenset(c) for size in range(3)
                 for c in itertools.combinations(OUTCOMES, size)]
    if agent_kind == "conseq":
        return [AdcAgent(frozenset(), y, False, True) for y in y_subsets]
    conj = agent_kind.endswith("conj")
    ii = agent_kind.startswith("ii")
    pool = range(1, n + 1) if ii else threshold_family(n)
    r_subsets = [frozenset(c) for size in range(len(pool) + 1)
                 for c in itertools.combinations(pool, size)]
    return [AdcAgent(r, y, conj, ii) for r in r_subsets for y in y_subsets]


@pytest.mark.parametrize("n", range(2, 7))
def test_decision_bits_match_threshold_reference(n):
    # The search scores options through core's substitution; the reference
    # decides each (threshold, outcome) pair on its own, without core.
    feasible = frozenset(threshold_family(n))
    for votes_p in range(n + 1):
        decisions = adc_decisions(n, votes_p, feasible)
        outcome_of = threshold_outcomes(n, votes_p)
        for kind in ("conseq", "abs_disj", "abs_conj", "ii_disj", "ii_conj"):
            for a in full_kind_options(kind, n):
                expected = tuple(int(adc_accepts(a, t, y, votes_p)) for t, y in decisions)
                assert _decision_bits(a, decisions, outcome_of) == expected


@pytest.mark.parametrize("n", range(3, 11))
def test_rank_cap_keeps_the_full_listings_options(n):
    # The search lists abs options only up to each class's threshold rank.
    # The Pareto-minimal options it keeps, their order and their
    # representatives must be those of the full listing, for every class,
    # k, vote count and side.
    feasible = frozenset(threshold_family(n))
    for class_id in sorted(CLASSES):
        ks = range(1, len(feasible) + 1) if CLASSES[class_id].needs_k else [None]
        for k in ks:
            kind, rank = CLASSES[class_id].agent_kind, _threshold_rank(class_id, k)
            for votes_p in range(n + 1):
                outcome_of = threshold_outcomes(n, votes_p)
                decisions = [(t, outcome_of[t]) for t in sorted(feasible)]
                capped = _kind_options(kind, n, votes_p, rank)

                def kept(opts):
                    return _pareto_minimal(
                        (_decision_bits(a, decisions, outcome_of), a) for a in opts
                    )

                for vote in OUTCOMES:
                    full = agent_options(class_id, n, votes_p, vote, feasible, k)
                    capped_here = [
                        a for a in capped
                        if class_predicate(class_id, a, n, votes_p, feasible, vote, k)
                    ]
                    assert kept(capped_here) == kept(full), (class_id, k, votes_p, vote)


def full_space_min(class_id, n, k=None):
    """Unreduced exhaustive minimum of the best acceptance count."""
    feasible = frozenset(threshold_family(n))
    kind = CLASSES[class_id].agent_kind
    best = None
    for votes in itertools.product(OUTCOMES, repeat=n):
        votes_p = sum(1 for v in votes if v == PROPOSAL)
        per_agent = [
            [a for a in full_kind_options(kind, n)
             if class_predicate(class_id, a, n, votes_p, feasible, v, k)]
            for v in votes
        ]
        if any(not opts for opts in per_agent):
            continue
        for agents in itertools.product(*per_agent):
            count = oracle_count(AdcInstance(votes, agents, feasible))
            if best is None or count < best:
                best = count
    return best


class TestReductionsAreExact:
    @pytest.mark.parametrize(
        "class_id", ["conseq-y1", "conseq-consistent", "ii-disj-r1", "ii-disj-y1"]
    )
    def test_reduced_matches_full_space_n2(self, class_id):
        report = worst_case_rate(class_id, 2)
        assert report.observed_min_rate == Fraction(full_space_min(class_id, 2), 2)

    @pytest.mark.parametrize("class_id", ["conseq-y1", "abs-conj-realizable"])
    def test_reduced_matches_full_space_n3(self, class_id):
        report = worst_case_rate(class_id, 3)
        assert report.observed_min_rate == Fraction(full_space_min(class_id, 3), 3)


class TestExhaustive:
    def test_abs_conj_consistent_has_zero_witness(self):
        report = worst_case_rate("abs-conj-consistent", 3)
        assert report.observed_min_rate == 0 and report.match
        assert oracle_count(report.witness) == 0
        for agent, vote in zip(report.witness.agents, report.witness.votes):
            assert vote in agent.outcomes and agent.thresholds

    def test_abs_disj_r1_n4(self):
        report = worst_case_rate("abs-disj-r1", 4)
        assert report.observed_min_rate == Fraction(1, 2) and report.match

    def test_conseq_y1_n4(self):
        report = worst_case_rate("conseq-y1", 4)
        assert report.observed_min_rate == Fraction(1, 2) and report.match

    def test_witness_achieves_observed_minimum(self):
        report = worst_case_rate("ii-conj-realizable", 3)
        assert report.match
        observed = Fraction(oracle_count(report.witness), 3)
        assert observed == report.observed_min_rate

    def test_k_row_pigeonhole_witness(self):
        for n, k in [(3, 1), (3, 2), (4, 1), (4, 2)]:
            report = worst_case_rate("abs-disj-k", n, k=k)
            expected = math.ceil(Fraction(n * k, len(threshold_family(n))))
            assert report.observed_min_rate == Fraction(expected, n)
            assert report.match

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("class_id", sorted(CLASSES))
    def test_witness_is_a_class_instance_at_the_minimum(self, class_id, n):
        # The witness is built from pruned representatives: it must still be a
        # member of the class and reach exactly the reported minimum.
        k = 2 if CLASSES[class_id].needs_k else None
        report = worst_case_rate(class_id, n, k=k)
        w = report.witness
        for agent, vote in zip(w.agents, w.votes):
            assert class_predicate(
                class_id, agent, n, w.votes_p, w.feasible_thresholds, vote, k
            )
        assert Fraction(oracle_count(w), n) == report.observed_min_rate

    def test_search_counters(self):
        report = worst_case_rate("abs-disj-r1", 5)
        # `options` counts the options listed under the rank cap: 12 per side
        # and vote count, where the full listing has 28.
        assert (report.options, report.kept, report.nodes) == (144, 36, 27)

    def test_witnesses_are_stable(self):
        # One digest over every whole row of `bounds all --n 3 ... --n 8 --k 2`:
        # rates, match, the search counters and the witness the multiset
        # product found. The second digest leaves out `options`, which the
        # rank cap changed; it was recorded over the full listing, so the
        # cap moved no rate, witness, `kept` or `nodes`.
        digest, without_options = hashlib.sha256(), hashlib.sha256()
        for class_id in sorted(CLASSES):
            k = 2 if CLASSES[class_id].needs_k else None
            for n in range(3, 9):
                row = bounds_report_to_dict(worst_case_rate(class_id, n, k=k))
                digest.update(dumps(row).encode() + b"\n")
                del row["options"]
                without_options.update(dumps(row).encode() + b"\n")
        assert without_options.hexdigest() == (
            "b97968f907e3a3f29ac010a84e2780ec9253ccf409934bc727f591b6bd944e01"
        )
        assert digest.hexdigest() == (
            "9e7250fbcabbe2e418d4e417ac08ca59cba9e6e494381e231cd0b64a94bf9f96"
        )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_branch_and_bound_matches_multiset_product(data):
    # Against the plain multiset product on arbitrary vectors: the first
    # least-count multiset, and nothing when the carried best is not beaten.
    width = data.draw(st.integers(min_value=1, max_value=4))
    vectors = st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=1)] * width), min_size=1, max_size=4
    )
    opts_p = [(bits, ("p", i)) for i, bits in enumerate(data.draw(vectors))]
    opts_r = [(bits, ("r", i)) for i, bits in enumerate(data.draw(vectors))]
    size_p = data.draw(st.integers(min_value=0, max_value=4))
    size_r = data.draw(st.integers(min_value=0, max_value=4))
    best_in = data.draw(st.integers(min_value=0, max_value=size_p + size_r + 1))
    expected_count, expected_agents = best_in, None
    for group_p in itertools.combinations_with_replacement(opts_p, size_p):
        for group_r in itertools.combinations_with_replacement(opts_r, size_r):
            group = group_p + group_r
            count = max(sum(bits[j] for bits, _ in group) for j in range(width))
            if count < expected_count:
                expected_count = count
                expected_agents = tuple(agent for _, agent in group)
    best, agents, _nodes = _branch_and_bound(
        [opts_p] * size_p + [opts_r] * size_r, width, best_in
    )
    assert (best, agents) == (expected_count, expected_agents)


class TestMajorityMechanism:
    def test_counts_acceptance_under_majority_rule(self):
        agents = tuple(
            AdcAgent(frozenset(), frozenset({v}), False, True) for v in ("p", "p", "r")
        )
        inst = AdcInstance(("p", "p", "r"), agents)
        assert majority_count(inst) == 2

    def test_consistent_agents_reach_half(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 7)
            votes = tuple(rng.choice(OUTCOMES) for _ in range(n))
            agents = tuple(
                AdcAgent(frozenset(), frozenset({v} | ({"p", "r"} if rng.random() < 0.3 else set())),
                         False, True)
                for v in votes
            )
            inst = AdcInstance(votes, agents)
            assert majority_count(inst) >= math.ceil(Fraction(n, 2))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=6),
    st.sampled_from(["conseq", "abs_disj", "abs_conj", "ii_disj", "ii_conj"]),
)
def test_enlarging_satisfying_sets_never_hurts(seed, n, kind):
    rng = random.Random(seed)
    inst = random_adc_instance(rng, n, kind)
    base = best_count(inst)
    i = rng.randrange(n)
    a = inst.agents[i]
    pool = range(1, n + 1) if a.implementation_indifferent else threshold_family(n)
    bigger = AdcAgent(
        a.thresholds | {rng.choice(list(pool))},
        a.outcomes | {rng.choice(OUTCOMES)},
        a.conjunctive,
        a.implementation_indifferent,
    )
    grown = AdcInstance(
        inst.votes,
        inst.agents[:i] + (bigger,) + inst.agents[i + 1:],
        inst.feasible_thresholds,
    )
    assert best_count(grown) >= base
