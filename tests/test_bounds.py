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
from acceptmax import bounds
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


# The row fields the certified floor changed or added; the others are as before it.
COUNTERS = ("kept", "nodes", "floor_rate")


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


def reference_vector(agent, votes_p, decisions):
    """The agent's 0/1 acceptance of each decision, from the threshold-space reference."""
    return tuple(int(adc_accepts(agent, t, y, votes_p)) for t, y in decisions)


def best_of(vectors):
    """The best count of agents with these acceptance vectors: the largest column total."""
    return max(map(sum, zip(*vectors)))


def full_space_minima(class_id, n, k=None):
    """Per vote count, the unreduced exhaustive minimum of the best count, or None.

    Every vote vector and every ordered choice of options, with no rank cap
    and no representative threshold sets. Each agent ranges over the
    distinct acceptance vectors of its options: options with equal vectors
    give every decision the same count.
    """
    row, minima = CLASSES[class_id], [None] * (n + 1)
    decisions = [adc_decisions(votes_p, threshold_family(n)) for votes_p in range(n + 1)]
    options = full_type_options(row.agent_types, n)
    for votes in itertools.product(OUTCOMES, repeat=n):
        votes_p = votes.count(PROPOSAL)
        outcome_of = threshold_outcomes(n, votes_p)
        realizable = _realizable(outcome_of)
        per_agent = [
            {reference_vector(a, votes_p, decisions[votes_p])
             for a in options if row.admits(a, v, outcome_of, realizable, k)}
            for v in votes
        ]
        for vectors in itertools.product(*per_agent):
            count = best_of(vectors)
            if minima[votes_p] is None or count < minima[votes_p]:
                minima[votes_p] = count
    return minima


def class_instance_minima(class_id, n, k=None):
    """Per vote count, the least best count over ``enumerate_instances``'s instances, or None.

    The options are those ``enumerate_instances`` draws from, read through
    the reference's acceptance vectors. Agents with equal votes are
    exchangeable and options with equal vectors give equal counts, so each
    side ranges over multisets of its distinct vectors.
    """
    listing = shared_options(CLASSES[class_id].agent_types, n)
    minima = []
    for votes_p in range(n + 1):
        decisions = adc_decisions(votes_p, threshold_family(n))
        _, sides = class_options(class_id, n, votes_p, k, listing)
        vectors_p, vectors_r = (
            sorted({reference_vector(a, votes_p, decisions) for a in side}) for side in sides
        )
        least = None
        for group_p in itertools.combinations_with_replacement(vectors_p, votes_p):
            for group_r in itertools.combinations_with_replacement(vectors_r, n - votes_p):
                count = best_of(group_p + group_r)
                if least is None or count < least:
                    least = count
        minima.append(least)
    return minima


def class_rows(sizes, ks=(1, 2)):
    """Every ``(class_id, n, k)`` at these sizes, each ``k`` a class takes that is in range."""
    for n in sizes:
        for class_id in sorted(CLASSES):
            if not CLASSES[class_id].needs_k:
                yield class_id, n, None
                continue
            yield from ((class_id, n, k) for k in ks if k <= len(threshold_family(n)))


def floors_of(class_id, n, k):
    """The search's certified floor at each vote count, None where the class has no instance."""
    return bounds._floors(class_id, n, k, bounds._rank_listing(class_id, n, k))[0]


class TestCertifiedFloor:
    @pytest.mark.parametrize("class_id, n, k", list(class_rows((2, 3))))
    def test_floor_is_sound_against_the_unreduced_space(self, class_id, n, k):
        # An instance exists at a vote count exactly when the search gives it
        # a floor, and no instance there has a best count below the floor.
        minima = full_space_minima(class_id, n, k)
        floors = floors_of(class_id, n, k)
        assert [m is None for m in minima] == [f is None for f in floors]
        for votes_p, (floor, least) in enumerate(zip(floors, minima)):
            assert floor is None or floor <= least, (votes_p, floor, least)

    # any-none at n = 3 streams 1 794 048 instances, too many to read whole.
    @pytest.mark.parametrize(
        "class_id, n, k", [row for row in class_rows((2, 3)) if row[:2] != ("any-none", 3)]
    )
    def test_class_instance_minima_read_every_enumerated_instance(self, class_id, n, k):
        # The multisets of distinct vectors stand for ``enumerate_instances``'s
        # ordered agents: both give each vote count the same least best count.
        minima = [None] * (n + 1)
        for inst in enumerate_instances(class_id, n, k):
            decisions = adc_decisions(inst.votes_p, threshold_family(n))
            count = best_of([reference_vector(a, inst.votes_p, decisions) for a in inst.agents])
            if minima[inst.votes_p] is None or count < minima[inst.votes_p]:
                minima[inst.votes_p] = count
        assert class_instance_minima(class_id, n, k) == minima

    @pytest.mark.parametrize("class_id, n, k", list(class_rows((2, 3, 4, 5))))
    def test_floor_is_sound_against_class_instances(self, class_id, n, k):
        minima = class_instance_minima(class_id, n, k)
        floors = floors_of(class_id, n, k)
        assert [m is None for m in minima] == [f is None for f in floors]
        for votes_p, (floor, least) in enumerate(zip(floors, minima)):
            assert floor is None or floor <= least, (votes_p, floor, least)

    def test_floor_reaches_the_minimum_on_every_row(self):
        # The least floor equals the exact minimum on every row at n = 2..16,
        # so each row's lower side is certified by the averaging bound and
        # the search only confirms it.
        for class_id, n, k in class_rows(range(2, 17)):
            report = worst_case_rate(class_id, n, k)
            assert report.floor_rate == report.observed_min_rate, (class_id, n, k)

    @pytest.mark.parametrize("shift", [1, 2, None])
    def test_a_lower_floor_moves_no_rate_or_witness(self, monkeypatch, shift):
        # A floor below the minimum leaves the seeded search with no leaf, and
        # the fallback searches again from n + 1; a floor of 0 everywhere
        # (None) searches every vote count. The rate and witness stay put.
        expected = {row: worst_case_rate(*row) for row in class_rows((3, 4, 5, 6))}
        real = bounds._floor

        def lowered(n, votes_p, masks_p, masks_r):
            return 0 if shift is None else max(0, real(n, votes_p, masks_p, masks_r) - shift)

        monkeypatch.setattr(bounds, "_floor", lowered)
        for row, report in expected.items():
            lower = worst_case_rate(*row)
            assert (lower.observed_min_rate, lower.witness) == (
                report.observed_min_rate,
                report.witness,
            ), row
            assert lower.floor_rate <= report.floor_rate
            assert lower.options == report.options
            assert lower.kept >= report.kept and lower.nodes >= report.nodes


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
        assert report.match and report.formula_rate == 1 and report.floor_rate is None
        row = bounds_report_to_dict(report)
        assert row["observed_min_rate"] is None and row["witness"] is None
        assert row["floor_rate"] is None

    def test_search_counters(self):
        report = worst_case_rate("abs-disj-r1", 5)
        # `options` counts the options listed under the rank cap: 12 per side
        # and vote count, where the full listing has 28. `kept` and `nodes`
        # count only the vote counts searched: one of the six.
        assert (report.options, report.kept, report.nodes) == (144, 6, 14)

    def test_witnesses_are_stable(self):
        # Digests over every whole row of `bounds all --n 3 ... --n 8 --k 2`.
        # The first leaves out the search counters `kept` and `nodes` and the
        # `floor_rate`: it was recorded before the certified floor seeded the
        # search, so the floor moved no rate, witness or `options`. The others
        # were recorded again with the floor: the second leaves out
        # `options`, which the rank cap changed, and the third covers the
        # whole row.
        counter_free = hashlib.sha256()
        digest, without_options = hashlib.sha256(), hashlib.sha256()
        for class_id in sorted(CLASSES):
            k = 2 if CLASSES[class_id].needs_k else None
            for n in range(3, 9):
                row = bounds_report_to_dict(worst_case_rate(class_id, n, k=k))
                digest.update(dumps(row).encode() + b"\n")
                free = {key: row[key] for key in row if key not in COUNTERS}
                counter_free.update(dumps(free).encode() + b"\n")
                del row["options"]
                without_options.update(dumps(row).encode() + b"\n")
        assert counter_free.hexdigest() == (
            "37813aaa4c0b3431a1c13e9e44afe4a2da9cb2931402ebae68c452b6283d0062"
        )
        assert without_options.hexdigest() == (
            "b4c79d8d7abeb42406c5537f33405d57fb11349d30061822cffcd499d1f1b487"
        )
        assert digest.hexdigest() == (
            "71a6155ef56b957130f2cad398065cd0736eb67b9b9c747004a994fbabc38105"
        )

    def test_abs_disj_k_row_at_n24_is_pinned(self):
        # The whole serialized row of `bounds abs-disj-k --k 2 --n 24`. The
        # row without `kept`, `nodes` and `floor_rate` was recorded before the
        # certified floor seeded the search; the counters and the whole row
        # were recorded with it.
        row = bounds_report_to_dict(worst_case_rate("abs-disj-k", 24, k=2))
        assert (row["options"], row["kept"], row["nodes"]) == (13200, 132, 710)
        assert row["witness"]["votes"] == "r" * 24
        assert [agent["R_t"] for agent in row["witness"]["agents"]] == [
            [t, t + 1] for t in range(13, 24, 2) for _ in range(4)
        ]
        assert hashlib.sha256(dumps(row).encode()).hexdigest() == (
            "cf650b2b574843019b49054c90b3b4a42cf79ba6f6c85609296cb5dd0f559a0e"
        )
        counter_free = {key: row[key] for key in row if key not in COUNTERS}
        assert hashlib.sha256(dumps(counter_free).encode()).hexdigest() == (
            "09f44486ae6ace8ab1c9651ec597d96078b6dea85e9aafe1e009dfdbff2f5890"
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
