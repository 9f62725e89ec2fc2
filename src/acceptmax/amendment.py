"""Choosing the supermajority threshold itself by a sequence of binary votes.

Agents have single-peaked preferences over the feasible thresholds, with
ideal threshold ``peak``. A proposal to raise the threshold from ``r`` to
``p`` is itself decided by the current rule applied to the induced binary
profile. An agent accepts an amendment decision when the winning threshold
is the one they voted for, or when their own ideal rule would have selected
the same winner on that profile.

The stable point of this process is the largest threshold ``t`` supported by
at least ``t - 1`` agents' peaks at or above it; single-step amendment jumps
there directly.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .adc import (
    PROPOSAL,
    STATUS_QUO,
    majority_threshold,
    threshold_family,
    threshold_outcomes,
)
from .core import FrozenValue, ValidationError


class VotePolicy(str, enum.Enum):
    """How an agent whose peak lies strictly between two proposals votes.

    Single-peakedness does not pin this vote down for non-adjacent pairs;
    any of these policies is consistent with it.
    """

    NEARER = "nearer"  # nearer threshold wins; distance ties keep the status quo
    STATUS_QUO_BIASED = "status-quo"
    PROPOSAL_BIASED = "proposal"


class AmendmentInstance(FrozenValue):
    """Agent peaks, the threshold currently in force, and the vote policy."""

    _fields = ("peaks", "status_quo", "vote_policy")

    def __init__(self, peaks: tuple, status_quo: int, vote_policy: VotePolicy = VotePolicy.NEARER):
        self.__dict__.update(peaks=tuple(peaks), status_quo=status_quo, vote_policy=vote_policy)
        n = self.__dict__["n"] = len(self.peaks)
        if n == 0:
            raise ValidationError("instance has no agents")
        # ``2.0 in range(2, 4)`` holds, so each value's type is checked too.
        family = threshold_family(n)
        if any(type(p) is not int or p not in family for p in self.peaks):
            raise ValidationError("peak outside the feasible threshold family")
        if type(self.status_quo) is not int or self.status_quo not in family:
            raise ValidationError("status quo outside the feasible threshold family")
        object.__setattr__(self, "vote_policy", VotePolicy(self.vote_policy))


class AmendmentStep(NamedTuple):
    """One proposal: thresholds on the ballot, induced votes, and who accepted."""

    status_quo: int
    proposal: int
    votes: tuple  # "r"/"p" per agent
    outcome: int  # winning threshold
    accepted_by: frozenset


class AmendmentTrace(NamedTuple):
    steps: tuple
    final_rule: int  # threshold of the rule that decided the final step
    final_outcome: int


class OneStepReport(NamedTuple):
    """Direct amendment to the stable threshold, or no amendment at all.

    ``votes`` and ``accepted_by`` are None when no vote takes place
    (the status quo is already at or above the stable threshold).
    """

    stable: int
    rule: int
    outcome: int
    votes: tuple | None
    accepted_by: frozenset | None


def induce_profile(peaks, r: int, p: int, policy: VotePolicy = VotePolicy.NEARER):
    """Votes between thresholds ``r`` (status quo) and ``p`` under single-peakedness."""
    if r == p:
        raise ValidationError("status quo and proposal must differ")
    policy = VotePolicy(policy)
    lo, hi = min(r, p), max(r, p)
    votes = []
    for peak in peaks:
        if peak <= lo:
            choice = lo
        elif peak >= hi:
            choice = hi
        elif policy is VotePolicy.STATUS_QUO_BIASED:
            choice = r
        elif policy is VotePolicy.PROPOSAL_BIASED:
            choice = p
        else:
            d_r, d_p = abs(peak - r), abs(peak - p)
            choice = r if d_r <= d_p else p
        votes.append(STATUS_QUO if choice == r else PROPOSAL)
    return tuple(votes)


def step_accepted_by(peaks, votes, outcome_of: dict, side: str) -> frozenset:
    """Agents accepting the amendment decision whose winning side is ``side`` (``"r"``/``"p"``).

    An agent accepts when they voted for that side, or when the rule at
    their own peak selects it on the same profile. ``outcome_of`` is the
    profile's ``adc.threshold_outcomes`` lookup.
    """
    pairs = enumerate(zip(peaks, votes))
    return frozenset(i for i, (peak, vote) in pairs if vote == side or outcome_of[peak] == side)


def h_threshold(peaks, n: int) -> int:
    """Largest threshold ``t`` with at least ``t - 1`` peaks at or above it.

    The simple majority threshold always qualifies, so the value exists.
    One pass counts the peaks at each threshold (a peak past unanimity
    counts at unanimity); the family is then scanned from unanimity down.
    """
    majority = majority_threshold(n)
    at = [0] * (n + 1)
    for peak in peaks:
        if peak >= majority:
            at[min(peak, n)] += 1
    at_or_above = 0
    for t in range(n, majority, -1):
        at_or_above += at[t]
        if at_or_above >= t - 1:
            return t
    return majority


def _ballot(instance: AmendmentInstance, r: int, p: int) -> AmendmentStep:
    """Put proposal ``p`` against status quo ``r``, decided by the incumbent rule ``r``."""
    votes = induce_profile(instance.peaks, r, p, instance.vote_policy)
    outcome_of = threshold_outcomes(instance.n, votes.count(PROPOSAL))
    side = outcome_of[r]
    winner = p if side == PROPOSAL else r
    accepted = step_accepted_by(instance.peaks, votes, outcome_of, side)
    return AmendmentStep(
        status_quo=r, proposal=p, votes=votes, outcome=winner, accepted_by=accepted
    )


def amend_iterative(instance: AmendmentInstance) -> AmendmentTrace:
    """Raise the threshold one notch at a time until a proposal fails.

    Each proposal ``r + 1`` is decided by the incumbent rule ``r`` on the
    induced profile; the process stops at the first failed proposal or at
    unanimity, and the last vote's decision is the result.
    """
    r = instance.status_quo
    steps = []
    final_rule, final_outcome = r, r
    while r < instance.n:
        step = _ballot(instance, r, r + 1)
        steps.append(step)
        final_rule, final_outcome = r, step.outcome
        if step.outcome == r:
            break
        r = step.proposal
    return AmendmentTrace(
        steps=tuple(steps), final_rule=final_rule, final_outcome=final_outcome
    )


def amend_one_step(instance: AmendmentInstance) -> OneStepReport:
    """Put the stable threshold up against the status quo in a single vote."""
    stable = h_threshold(instance.peaks, instance.n)
    r = instance.status_quo
    if r >= stable:
        return OneStepReport(
            stable=stable, rule=r, outcome=r, votes=None, accepted_by=None
        )
    step = _ballot(instance, r, stable)
    return OneStepReport(
        stable=stable,
        rule=r,
        outcome=step.outcome,
        votes=step.votes,
        accepted_by=step.accepted_by,
    )


def check_universal_acceptance(trace: AmendmentTrace, instance: AmendmentInstance) -> bool:
    """True when every step's decision was accepted by all agents."""
    return all(len(step.accepted_by) == instance.n for step in trace.steps)
