"""Threshold amendment: induced profiles, the stable point, iterative and one-step runs."""

import itertools
import random

import pytest

from acceptmax.amendment import (
    AmendmentInstance,
    AmendmentStep,
    AmendmentTrace,
    VotePolicy,
    amend_iterative,
    amend_one_step,
    check_universal_acceptance,
    h_threshold,
    induce_profile,
    step_accepted_by,
)
from acceptmax.adc import (
    PROPOSAL,
    AdcAgent,
    AdcInstance,
    majority_threshold,
    rule_id,
    threshold_family,
    threshold_outcomes,
)
from acceptmax.core import ValidationError, max_accept

POLICIES = list(VotePolicy)


class TestInduceProfile:
    def test_adjacent_pair_fully_determined(self):
        votes = induce_profile((3, 4, 4, 5, 5), r=3, p=4)
        assert votes == ("r", "p", "p", "p", "p")

    def test_all_peaks_at_status_quo(self):
        assert induce_profile((3, 3, 3), r=3, p=4) == ("r", "r", "r")

    def test_middle_peak_follows_policy(self):
        # Peak 4 between r=3 and p=5 is one step from either; the distance
        # tie goes to the status quo under the nearer policy.
        for policy, expected in [
            (VotePolicy.NEARER, "r"),
            (VotePolicy.STATUS_QUO_BIASED, "r"),
            (VotePolicy.PROPOSAL_BIASED, "p"),
        ]:
            assert induce_profile((4,), r=3, p=5, policy=policy) == (expected,)

    def test_nearer_breaks_strict_distances(self):
        assert induce_profile((5,), r=3, p=6) == ("p",)
        assert induce_profile((4,), r=3, p=6) == ("r",)

    def test_equal_thresholds_rejected(self):
        with pytest.raises(ValidationError):
            induce_profile((3, 3, 3), r=3, p=3)


class TestHThreshold:
    def test_worked_example(self):
        assert h_threshold((3, 4, 4, 5, 5), 5) == 4

    def test_unanimous_peaks(self):
        assert h_threshold((5,) * 5, 5) == 5

    def test_all_peaks_at_majority(self):
        for n in range(2, 8):
            maj = majority_threshold(n)
            assert h_threshold((maj,) * n, n) == maj

    def test_definition(self):
        for n in range(2, 7):
            for peaks in itertools.product(threshold_family(n), repeat=n):
                h = h_threshold(peaks, n)
                qualifying = [
                    t
                    for t in threshold_family(n)
                    if sum(1 for p in peaks if p >= t) >= t - 1
                ]
                assert h == max(qualifying)

    def test_definition_on_random_large_peaks(self):
        # Peaks range past the family on both sides: below majority they
        # never count, past unanimity they count for every threshold.
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(2, 300)
            peaks = [rng.randint(1, n + 2) for _ in range(n)]
            qualifying = [
                t
                for t in threshold_family(n)
                if sum(1 for p in peaks if p >= t) >= t - 1
            ]
            assert h_threshold(peaks, n) == max(qualifying, default=majority_threshold(n))


class TestIterative:
    def test_worked_example(self):
        trace = amend_iterative(AmendmentInstance((3, 4, 4, 5, 5), status_quo=3))
        assert [(s.status_quo, s.proposal, s.outcome) for s in trace.steps] == [
            (3, 4, 4),
            (4, 5, 4),
        ]
        assert trace.final_outcome == 4
        assert all(len(s.accepted_by) == 5 for s in trace.steps)

    def test_status_quo_above_stable_point(self):
        inst = AmendmentInstance((3, 3, 3, 3, 3), status_quo=4)
        trace = amend_iterative(inst)
        assert trace.final_outcome == 4 == inst.status_quo
        assert trace.steps[0].outcome == 4  # first proposal already fails

    def test_status_quo_at_unanimity(self):
        unanimity = AmendmentInstance((5, 5, 5, 5, 5), status_quo=5)
        trace = amend_iterative(unanimity)
        assert trace.steps == () and trace.final_outcome == 5

    def test_empty_trace_is_universal(self):
        inst = AmendmentInstance((5, 5, 5, 5, 5), status_quo=5)
        assert check_universal_acceptance(amend_iterative(inst), inst)


class TestOneStep:
    def test_worked_example(self):
        report = amend_one_step(AmendmentInstance((3, 4, 4, 5, 5), status_quo=3))
        assert report.stable == 4 and report.outcome == 4
        assert report.rule == 3
        assert len(report.accepted_by) == 5

    def test_no_amendment_at_stable_point(self):
        inst = AmendmentInstance((3, 4, 4, 5, 5), status_quo=4)
        report = amend_one_step(inst)
        assert report.outcome == 4 and report.votes is None

    def test_jump_to_unanimity(self):
        report = amend_one_step(AmendmentInstance((5,) * 5, status_quo=3))
        assert report.outcome == 5
        assert len(report.accepted_by) == 5


class TestUniversalAcceptance:
    def test_hand_built_bad_step_detected(self):
        # A non-adjacent proposal decided by a foreign rule can leave a
        # dissenting agent with no counterfactual justification.
        peaks = (3, 3, 5, 5, 5)
        votes = induce_profile(peaks, r=3, p=5)
        outcome_of = threshold_outcomes(5, votes.count(PROPOSAL))
        accepted = step_accepted_by(peaks, votes, outcome_of, PROPOSAL)
        trace = AmendmentTrace(
            steps=(AmendmentStep(3, 5, votes, 5, accepted),),
            final_rule=3,
            final_outcome=5,
        )
        inst = AmendmentInstance(peaks, status_quo=3)
        # votes_p = 3: rule at peak 3 selects the winner, so even dissenters
        # accept here; shrink support to break it.
        assert check_universal_acceptance(trace, inst)
        peaks = (3, 3, 3, 5, 5)
        votes = induce_profile(peaks, r=3, p=5)
        outcome_of = threshold_outcomes(5, votes.count(PROPOSAL))
        accepted = step_accepted_by(peaks, votes, outcome_of, PROPOSAL)
        assert len(accepted) < 5

    def test_policies_preserve_guarantees_smoke(self):
        for policy in POLICIES:
            inst = AmendmentInstance((3, 4, 5, 5, 5), status_quo=3, vote_policy=policy)
            trace = amend_iterative(inst)
            assert check_universal_acceptance(trace, inst)
            assert trace.final_outcome == h_threshold(inst.peaks, 5)


def ii_disjunctivist(peak, vote):
    return AdcAgent(frozenset({peak}), frozenset({vote}), False, True)


def absolute_disjunctivist(peak, vote):
    return AdcAgent(frozenset({peak}), frozenset({vote}), False, False)


def ii_proceduralist(peak, vote):
    return AdcAgent(frozenset({peak}), frozenset(), False, True)


def ballot_instance(peaks, r, votes, make_agent=ii_disjunctivist):
    """A ballot as an adc instance: the induced votes, the incumbent ``r`` the only feasible rule.

    Agent i reads its peak as its one acceptable threshold and its vote as
    its one acceptable outcome, with the flags ``make_agent`` gives it.
    """
    return AdcInstance(votes, tuple(map(make_agent, peaks, votes)), frozenset({r}))


class TestBallotsAsAdcInstances:
    """Each ballot's winner and accepters equal ``max_accept`` on the ballot's adc instance.

    Amendment (Abramowitz et al. 2021) is universally accepted by ii
    disjunctivists. That is what ``step_accepted_by`` decides, and here it
    is checked against the one acceptance definition in ``acceptmax.core``.
    """

    def test_every_ballot_up_to_n_6(self):
        for n in range(2, 7):
            family = threshold_family(n)
            for peaks in itertools.product(family, repeat=n):
                for sq in family:
                    for policy in POLICIES:
                        inst = AmendmentInstance(peaks, sq, policy)
                        ballots = [
                            (s.status_quo, s.proposal, s.votes, s.outcome, s.accepted_by)
                            for s in amend_iterative(inst).steps
                        ]
                        one = amend_one_step(inst)
                        if one.votes is not None:
                            ballots.append(
                                (one.rule, one.stable, one.votes, one.outcome, one.accepted_by)
                            )
                        for r, p, votes, outcome, accepted_by in ballots:
                            report = max_accept(ballot_instance(peaks, r, votes))
                            winner = p if report.decision.outcome == PROPOSAL else r
                            assert report.decision.rule.id == rule_id(r)
                            assert (winner, report.accepted_by) == (outcome, accepted_by)

    @pytest.mark.parametrize(
        "peaks, make_agent, accepted",
        [((2, 2, 3), absolute_disjunctivist, 2), ((2, 3, 3), ii_proceduralist, 1)],
        ids=["absolute-disjunctivist", "ii-proceduralist"],
    )
    def test_universality_depends_on_agent_type(self, peaks, make_agent, accepted):
        inst = AmendmentInstance(peaks, 2, VotePolicy.NEARER)
        (step,) = amend_iterative(inst).steps
        assert len(step.accepted_by) == 3
        report = max_accept(ballot_instance(peaks, 2, step.votes, make_agent))
        assert report.acceptance_count == accepted


class TestValidation:
    @pytest.mark.parametrize(
        "peaks, status_quo",
        [((3.0, 3, 3), 2), ((3, 3, 3), 2.0), ((True,), 1), ((1,), True)],
    )
    def test_non_int_peak_or_status_quo_rejected(self, peaks, status_quo):
        # Each equals a family member, so a bare ``in range`` test lets it in.
        with pytest.raises(ValidationError):
            AmendmentInstance(peaks, status_quo)

    def test_peak_outside_family(self):
        with pytest.raises(ValidationError):
            AmendmentInstance((1, 3, 3), status_quo=3)

    def test_status_quo_outside_family(self):
        with pytest.raises(ValidationError):
            AmendmentInstance((3, 3, 3), status_quo=1)

    def test_policy_coercion(self):
        inst = AmendmentInstance((3, 3, 3), status_quo=3, vote_policy="proposal")
        assert inst.vote_policy is VotePolicy.PROPOSAL_BIASED
