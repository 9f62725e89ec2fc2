"""Worst-case acceptance rates: closed forms, enumeration reductions, the exact search."""

import gc
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
    _mask_scorer,
    _pareto_kept,
    _realizable,
    check_class,
    class_options,
    has_instance,
    shared_options,
    table1_formula,
    worst_case_rate,
)
from acceptmax.core import AGENT_TYPES, ValidationError, max_accept, oracle_max_accept
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

    @pytest.mark.parametrize(
        "call, message",
        [
            (("no-such-row", 1, None), "unknown class 'no-such-row'"),
            (("abs-disj-k", 1, None), "worst-case rates are defined for n >= 2"),
            (("abs-disj-k", 4, None), "class 'abs-disj-k' requires parameter k"),
            (("abs-disj-k", 4, 3), "k=3 outside [1, 2]"),
        ],
    )
    def test_check_class_order(self, call, message):
        # Each call is bad in this and every later way, so only the order of
        # the checks decides which message it meets.
        with pytest.raises(ValidationError) as exc:
            check_class(*call)
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            worst_case_rate(*call)
        assert str(exc.value) == message

    def test_class_without_k_ignores_it(self):
        check_class("any-none", 3, 99)
        assert worst_case_rate("any-none", 3, k=2).k is None
        assert worst_case_rate("abs-disj-k", 3, k=2).k == 2


class TestEnumeration:
    def test_any_class_includes_all_empty_instance(self):
        empty = AdcAgent(frozenset(), frozenset(), False, False)
        assert any(
            all(a == empty for a in inst.agents)
            for inst in enumerate_instances("any-none", 2)
        )

    def test_enumerated_instances_satisfy_predicate(self):
        for class_id in ("abs-disj-k", "ii-conj-realizable", "conseq-consistent"):
            k = 1 if CLASSES[class_id].needs_k else None
            seen = 0
            for inst in enumerate_instances(class_id, 3, k):
                realizable = _realizable(inst.rule_value)
                for agent, vote in zip(inst.agents, inst.votes):
                    assert CLASSES[class_id].admits(agent, vote, inst.rule_value, realizable, k)
                seen += 1
            assert seen > 0


def full_type_options(agent_types, n):
    """Agent options of each named type without the representative-set reduction."""
    options = []
    for name in agent_types:
        conj, ii, names_rules, names_outcomes = AGENT_TYPES[name]
        pool = range(1, n + 1) if ii else threshold_family(n)
        r_subsets = [frozenset(c) for size in range(len(pool) + 1 if names_rules else 1)
                     for c in itertools.combinations(pool, size)]
        y_subsets = [frozenset(c) for size in range(3 if names_outcomes else 1)
                     for c in itertools.combinations(OUTCOMES, size)]
        options += [AdcAgent(r, y, conj, ii) for r in r_subsets for y in y_subsets]
    return options


@pytest.mark.parametrize("n", range(2, 7))
def test_decision_bits_match_threshold_reference(n):
    # The search scores options through core's substitution, as int masks
    # whose highest bit is the smallest family threshold; the reference
    # decides each (threshold, outcome) pair on its own, without core.
    feasible = frozenset(threshold_family(n))
    for votes_p in range(n + 1):
        decisions = adc_decisions(votes_p, feasible)
        assert [t for t, _ in decisions] == list(threshold_family(n))
        outcome_of = threshold_outcomes(n, votes_p)
        for name in AGENT_TYPES:
            options = full_type_options((name,), n)
            for a, mask in zip(options, _mask_scorer(n, outcome_of, options), strict=True):
                assert mask >> len(decisions) == 0
                for j, (t, y) in enumerate(decisions):
                    bit = mask >> (len(decisions) - 1 - j) & 1
                    assert bit == adc_accepts(a, t, y, votes_p), (a, t, y)


@pytest.mark.parametrize("n", range(3, 11))
def test_rank_cap_keeps_the_full_listings_options(n):
    # The search lists abs options only up to each class's threshold rank.
    # The Pareto-minimal options it keeps, their order and their
    # representatives must be those of the full listing, for every class,
    # k, vote count and side.
    family = threshold_family(n)
    for class_id in sorted(CLASSES):
        row = CLASSES[class_id]
        ks = range(1, len(family) + 1) if row.needs_k else [None]
        full_listing = shared_options(row.agent_types, n)
        for k in ks:
            capped_listing = shared_options(row.agent_types, n, k if row.needs_k else row.rank)
            for votes_p in range(n + 1):
                outcome_of, capped = class_options(class_id, n, votes_p, k, capped_listing)
                _, full = class_options(class_id, n, votes_p, k, full_listing)

                def kept(opts):
                    scored = zip(_mask_scorer(n, outcome_of, opts), opts)
                    return _pareto_kept(scored, len(family))

                for vote, capped_here, full_here in zip(OUTCOMES, capped, full):
                    assert kept(capped_here) == kept(full_here), (class_id, k, votes_p, vote)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mask_pruning_matches_brute_force(data):
    # Brute force over 0/1 vectors: keep the first option with each vector
    # when no option's vector lies strictly below it, in canonical order.
    width = data.draw(st.integers(min_value=1, max_value=5))
    vectors = data.draw(
        st.lists(st.tuples(*[st.integers(min_value=0, max_value=1)] * width), max_size=12)
    )
    masks = [sum(bit << (width - 1 - j) for j, bit in enumerate(v)) for v in vectors]

    def strictly_below(u, v):
        return u != v and all(a <= b for a, b in zip(u, v))

    expected = [
        (v, ("option", i))
        for i, v in enumerate(vectors)
        if v not in vectors[:i] and not any(strictly_below(u, v) for u in vectors)
    ]
    scored = [(mask, ("option", i)) for i, mask in enumerate(masks)]
    assert _pareto_kept(scored, width) == expected


def full_space_min(class_id, n, k=None):
    """Unreduced exhaustive minimum of the best acceptance count."""
    best = None
    for votes in itertools.product(OUTCOMES, repeat=n):
        votes_p = sum(1 for v in votes if v == PROPOSAL)
        outcome_of = threshold_outcomes(n, votes_p)
        realizable = _realizable(outcome_of)
        per_agent = [
            [a for a in full_type_options(CLASSES[class_id].agent_types, n)
             if CLASSES[class_id].admits(a, v, outcome_of, realizable, k)]
            for v in votes
        ]
        if any(not opts for opts in per_agent):
            continue
        for agents in itertools.product(*per_agent):
            count = oracle_count(AdcInstance(votes, agents))
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
        assert w.feasible_thresholds == frozenset(threshold_family(n))
        realizable = _realizable(w.rule_value)
        for agent, vote in zip(w.agents, w.votes):
            assert CLASSES[class_id].admits(agent, vote, w.rule_value, realizable, k)
        assert Fraction(oracle_count(w), n) == report.observed_min_rate

    def test_class_empty_at_n_has_no_witness(self):
        # No ii-disj-last agent exists at n = 2: at every vote count some
        # voter has no option, so nothing is searched and nothing fails.
        report = worst_case_rate("ii-disj-last", 2)
        assert (report.observed_min_rate, report.witness) == (None, None)
        assert (report.options, report.kept, report.nodes) == (0, 0, 0)
        assert report.match and report.formula_rate == 1
        row = bounds_report_to_dict(report)
        assert row["observed_min_rate"] is None and row["witness"] is None

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
        # cap moved no rate, witness, `kept` or `nodes`. Both were recorded
        # again when rule-less absolute agents got their own type names, a
        # change that moved no other field.
        digest, without_options = hashlib.sha256(), hashlib.sha256()
        for class_id in sorted(CLASSES):
            k = 2 if CLASSES[class_id].needs_k else None
            for n in range(3, 9):
                row = bounds_report_to_dict(worst_case_rate(class_id, n, k=k))
                digest.update(dumps(row).encode() + b"\n")
                del row["options"]
                without_options.update(dumps(row).encode() + b"\n")
        assert without_options.hexdigest() == (
            "bf869e87f24d0ff91253855952b554e18973aaf3ff468260898c26161db0871b"
        )
        assert digest.hexdigest() == (
            "50995c9016c6f66c9023b6acd557251d4b059e36ba22c2e3b3872544b8539725"
        )


    def test_abs_disj_k_row_at_n24_is_pinned(self):
        # The whole serialized row of `bounds abs-disj-k --k 2 --n 24`,
        # recorded before options were scored and pruned as int masks.
        row = bounds_report_to_dict(worst_case_rate("abs-disj-k", 24, k=2))
        assert (row["options"], row["kept"], row["nodes"]) == (13200, 3300, 8628)
        assert row["witness"]["votes"] == "r" * 24
        assert [agent["R_t"] for agent in row["witness"]["agents"]] == [
            [t, t + 1] for t in range(13, 24, 2) for _ in range(4)
        ]
        assert hashlib.sha256(dumps(row).encode()).hexdigest() == (
            "e1e8b798c06cf3f63dcbdb568c9d297c176b756e3d56e23a9210ac71218407a6"
        )

    def test_search_leaves_no_cycles(self):
        # Every row's search must free what it built when it returns, not
        # leave it to the cyclic collector.
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for class_id in sorted(CLASSES):
                for n in (3, 4, 5):
                    worst_case_rate(class_id, n, k=2)
                    has_instance(class_id, n, k=2)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


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
