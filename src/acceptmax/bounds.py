"""Worst-case acceptance rates over classes of binary-choice instances.

An instance class pairs a (homogeneous) agent type with a structural
assumption on the agents' satisfying sets, such as "each agent finds at
least one feasible rule acceptable". The worst case is the minimum, over
every instance in the class, of the best achievable acceptance count, as
an exact rational of the electorate size. The search is exact at every
electorate size.

Assumptions that reference acceptable outcomes are read against the
outcomes some feasible rule actually selects on the profile at hand
(an outcome no feasible rule can produce admits no feasible decision,
so acceptability of it alone cannot help any mechanism).

Five exact reductions keep exhaustion tractable; none of them changes
the minimum:
 * vote vectors are enumerated up to permutation (acceptance depends on
   the profile only through the proposal's vote count and each agent's
   own vote),
 * agents with equal votes are enumerated as multisets (agents are
   exchangeable),
 * for implementation-indifferent agents, threshold sets are enumerated
   up to which outcomes they realize on the profile (acceptance factors
   through exactly that),
 * only options whose acceptance vector over the feasible decisions is
   Pareto-minimal are kept, the first in canonical order standing for
   each vector (swapping an agent for one that accepts a subset of its
   decisions cannot raise any decision's count),
 * absolute agents are listed naming at most the class's rank of
   thresholds, the most an inclusion-minimal class option names: 0 for
   ``any-none`` and ``abs-disj-y1``, 1 for ``abs-disj-r1`` and both
   ``abs-conj`` rows, ``k`` for ``abs-disj-k``. Acceptance is monotone
   in an agent's thresholds and outcomes and these class predicates are
   upward-closed, so every Pareto-minimal vector comes from an option
   that small; the first option in canonical order for a vector is
   inclusion-minimal (any satisfying sub-option comes earlier), so the
   kept options are those of the full listing.

The multisets are searched depth first by branch and bound, proposal
voters first. A branch carries each feasible decision's acceptance count
so far and is dropped once it cannot beat the least best count found yet:
when its largest count already reaches it, or when the pigeonhole bound
does. Every remaining agent adds at least the fewest acceptances among its
side's kept options, so some decision ends with at least
``ceil((sum of counts + those fewest acceptances) / number of decisions)``.
Neither bound drops a branch holding a smaller minimum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .adc import (
    PROPOSAL,
    STATUS_QUO,
    AdcAgent,
    AdcInstance,
    threshold_family,
    threshold_outcomes,
)
from .core import ValidationError, substitute_absolute_disjunctivist


@dataclass(frozen=True)
class InstanceClass:
    """One verifiable row: an agent kind plus a per-agent assumption."""

    id: str
    agent_kind: str  # any | conseq | abs_disj | abs_conj | ii_disj | ii_conj
    needs_k: bool = False


CLASSES = {
    c.id: c
    for c in (
        InstanceClass("any-none", "any"),
        InstanceClass("abs-conj-consistent", "abs_conj"),
        InstanceClass("abs-conj-realizable", "abs_conj"),
        InstanceClass("abs-disj-r1", "abs_disj"),
        InstanceClass("abs-disj-k", "abs_disj", needs_k=True),
        InstanceClass("abs-disj-y1", "abs_disj"),
        InstanceClass("ii-conj-realizable", "ii_conj"),
        InstanceClass("ii-disj-r1", "ii_disj"),
        InstanceClass("ii-disj-y1", "ii_disj"),
        InstanceClass("ii-disj-last", "ii_disj"),
        # Not table rows proper, but verified the same way.
        InstanceClass("conseq-y1", "conseq"),
        InstanceClass("conseq-consistent", "conseq"),
    )
}


@dataclass(frozen=True)
class BoundsReport:
    class_id: str
    n: int
    k: int | None
    observed_min_rate: Fraction | None
    formula_rate: Fraction
    witness: AdcInstance | None
    match: bool
    # Search counters summed over vote counts: agent options listed, options
    # kept after pruning, branch-and-bound nodes visited.
    options: int
    kept: int
    nodes: int


def check_k(class_id: str, n: int, k: int | None) -> None:
    """Reject a missing ``k``, or one outside [1, family size], for a class that needs it."""
    if not CLASSES[class_id].needs_k:
        return
    if k is None:
        raise ValidationError(f"class {class_id!r} requires parameter k")
    family_size = len(threshold_family(n))
    if not 1 <= k <= family_size:
        raise ValidationError(f"k={k} outside [1, {family_size}]")


def table1_formula(class_id: str, n: int, k: int | None = None) -> Fraction:
    """Closed-form worst-case rate for a class at electorate size ``n``.

    Values are exact for each ``n``; the half-electorate rows evaluate to
    ``ceil(n/2)/n``, whose infimum over all sizes is one half.
    """
    if n < 2:
        raise ValidationError("worst-case rates are defined for n >= 2")
    check_k(class_id, n, k)
    family_size = len(threshold_family(n))
    if class_id in ("any-none", "abs-conj-consistent"):
        return Fraction(0)
    if class_id in ("abs-conj-realizable", "abs-disj-r1"):
        return Fraction(2, n)
    if class_id == "abs-disj-k":
        return Fraction(math.ceil(Fraction(n * k, family_size)), n)
    if class_id == "ii-disj-last":
        return Fraction(1)
    # Half-electorate rows.
    return Fraction(math.ceil(Fraction(n, 2)), n)


# ---------------------------------------------------------------------------
# Per-agent option spaces and class predicates.

_Y_SUBSETS = (
    frozenset(),
    frozenset({PROPOSAL}),
    frozenset({STATUS_QUO}),
    frozenset({PROPOSAL, STATUS_QUO}),
)


def _family_subsets(n: int, rank: int | None = None):
    """Subsets of the threshold family by size, then lexicographically; at most ``rank`` long."""
    family = sorted(threshold_family(n))
    for size in range(len(family) + 1 if rank is None else rank + 1):
        yield from (frozenset(c) for c in itertools.combinations(family, size))


def _threshold_rank(class_id: str, k: int | None) -> int | None:
    """The most thresholds an inclusion-minimal option of an ``abs`` class names.

    None for the ii and conseq rows, whose options keep their representative
    sets. Read only by the worst-case search: see the module docstring.
    """
    if class_id in ("any-none", "abs-disj-y1"):
        return 0
    if class_id in ("abs-disj-r1", "abs-conj-consistent", "abs-conj-realizable"):
        return 1
    if class_id == "abs-disj-k":
        return k
    return None


def _ii_threshold_reps(n: int, votes_p: int):
    """Representative threshold sets, one per realized-outcome class."""
    reps = [frozenset()]
    if votes_p >= 1:
        reps.append(frozenset({votes_p}))  # realizes the proposal
    if votes_p <= n - 1:
        reps.append(frozenset({votes_p + 1}))  # realizes the status quo
    if 1 <= votes_p <= n - 1:
        reps.append(frozenset({votes_p, votes_p + 1}))
    return reps


@functools.cache
def _realizable_feasible(n: int, votes_p: int, feasible) -> frozenset:
    return frozenset(map(threshold_outcomes(n, votes_p).__getitem__, feasible))


def class_predicate(
    class_id: str,
    agent: AdcAgent,
    n: int,
    votes_p: int,
    feasible,
    vote: str,
    k: int | None = None,
) -> bool:
    """Whether one agent's satisfying set meets the class assumption."""
    if class_id == "any-none":
        return True
    outcome_of = threshold_outcomes(n, votes_p)
    realizable = _realizable_feasible(n, votes_p, feasible)
    r_feas = agent.thresholds & frozenset(feasible)
    if class_id == "abs-conj-consistent":
        return vote in agent.outcomes and bool(r_feas)
    if class_id == "abs-conj-realizable":
        return any(outcome_of[t] in agent.outcomes for t in r_feas)
    if class_id == "abs-disj-r1":
        return len(r_feas) >= 1
    if class_id == "abs-disj-k":
        return len(r_feas) >= k
    if class_id in ("abs-disj-y1", "ii-disj-y1", "conseq-y1"):
        return bool(agent.outcomes & realizable)
    if class_id == "conseq-consistent":
        return vote in agent.outcomes
    # The outcomes the agent's thresholds realize, read only by these rows.
    realized = frozenset(map(outcome_of.__getitem__, agent.thresholds))
    if class_id == "ii-conj-realizable":
        return bool(agent.outcomes & realizable & realized)
    if class_id == "ii-disj-r1":
        return bool(realized & realizable)
    if class_id == "ii-disj-last":
        return len(agent.outcomes & realizable) == 1 and bool(
            realized & (realizable - agent.outcomes)
        )
    raise ValidationError(f"unknown class {class_id!r}")


def _kind_options(agent_kind: str, n: int, votes_p: int, rank: int | None = None):
    """Unfiltered (type-consistent) agent options, empty sets first.

    Absolute agents name at most ``rank`` thresholds (any number when None).
    """
    if agent_kind == "conseq":
        return [AdcAgent(frozenset(), y, False, True) for y in _Y_SUBSETS]
    if agent_kind in ("abs_disj", "abs_conj"):
        conj = agent_kind == "abs_conj"
        return [
            AdcAgent(r, y, conj, False) for r in _family_subsets(n, rank) for y in _Y_SUBSETS
        ]
    if agent_kind in ("ii_disj", "ii_conj"):
        conj = agent_kind == "ii_conj"
        return [
            AdcAgent(r, y, conj, True) for r in _ii_threshold_reps(n, votes_p) for y in _Y_SUBSETS
        ]
    if agent_kind == "any":
        opts = []
        for kind in ("abs_disj", "abs_conj", "ii_disj", "ii_conj"):
            opts.extend(_kind_options(kind, n, votes_p, rank))
        return opts
    raise ValidationError(f"unknown agent kind {agent_kind!r}")


def agent_options(class_id, n, votes_p, vote, feasible, k=None):
    """Class-satisfying agent options for one voter, in canonical order.

    The full listing, uncapped: ``gen`` samples from it.
    """
    return [
        a
        for a in _kind_options(CLASSES[class_id].agent_kind, n, votes_p)
        if class_predicate(class_id, a, n, votes_p, feasible, vote, k)
    ]


# ---------------------------------------------------------------------------
# Worst-case search.


def _decision_bits(agent: AdcAgent, decisions, outcome_of):
    """The agent's acceptance of each decision (t, y), through its substitute (R', Y')."""
    rules, outcomes = substitute_absolute_disjunctivist(agent, outcome_of)
    return tuple(int(y in outcomes or t in rules) for t, y in decisions)


def _pareto_minimal(bit_options):
    """The options whose acceptance vector no other option's lies below.

    Options with equal vectors are represented by the first in canonical order,
    and the kept options stay in canonical order.
    """
    firsts = {}
    for bits, agent in bit_options:
        firsts.setdefault(bits, agent)
    # A vector can only lie below one with a larger sum, so visiting by sum
    # compares each vector with the minimal ones found so far and no others.
    # As bit masks, ``other`` lies below ``mask`` when ``other & mask == other``.
    keep, masks = set(), []
    for bits in sorted(firsts, key=sum):
        mask = int("".join(map(str, bits)), 2)
        if not any(other & mask == other for other in masks):
            masks.append(mask)
            keep.add(bits)
    return [(bits, agent) for bits, agent in firsts.items() if bits in keep]


def _branch_and_bound(slots, width, best):
    """Least-count multiset of one kept option per slot, if below ``best``.

    ``slots`` lists each agent's kept ``(bits, agent)`` options; consecutive
    slots that share one list form a multiset, chosen by nondecreasing index.
    Leaves are visited in the order of the multiset product, and only a
    strictly smaller count replaces ``best``. Returns ``(best, agents,
    nodes)``: ``agents`` is None when no leaf beats the ``best`` passed in,
    and ``nodes`` counts the partial multisets whose bounds were checked.
    """
    size = len(slots)
    rest = [0] * (size + 1)
    for i in reversed(range(size)):
        rest[i] = rest[i + 1] + min(sum(bits) for bits, _ in slots[i])
    chosen = []
    found = None
    nodes = 0

    def visit(i, start, totals):
        nonlocal best, found, nodes
        nodes += 1
        # Pigeonhole: some decision ends with at least the mean column total.
        if max(totals) >= best or -(-(sum(totals) + rest[i]) // width) >= best:
            return
        if i == size:
            best, found = max(totals), tuple(chosen)
            return
        options = slots[i]
        same_side = i + 1 < size and slots[i + 1] is options
        for index in range(start, len(options)):
            bits, agent = options[index]
            chosen.append(agent)
            visit(
                i + 1,
                index if same_side else 0,
                [a + b for a, b in zip(totals, bits)],
            )
            chosen.pop()

    visit(0, 0, [0] * width)
    return best, found, nodes


def worst_case_rate(class_id: str, n: int, k: int | None = None) -> BoundsReport:
    """Exact minimum of the best achievable acceptance rate over an instance class.

    The best count carries over from one vote count to the next, so the
    witness is the first minimal multiset at the first vote count that
    reaches the minimum. Each vote count's options are listed up to the
    class's rank and scored once; each side then keeps those its voters
    may hold.
    """
    if class_id not in CLASSES:
        raise ValidationError(f"unknown class {class_id!r}")
    formula = table1_formula(class_id, n, k)
    feasible = frozenset(threshold_family(n))
    kind, rank = CLASSES[class_id].agent_kind, _threshold_rank(class_id, k)
    best, witness = n + 1, None
    options = kept = nodes = 0
    for votes_p in range(n + 1):
        outcome_of = threshold_outcomes(n, votes_p)
        decisions = [(t, outcome_of[t]) for t in sorted(feasible)]
        scored = [
            (_decision_bits(a, decisions, outcome_of), a)
            for a in _kind_options(kind, n, votes_p, rank)
        ]
        sides = []
        for vote in (PROPOSAL, STATUS_QUO):
            opts = [
                (bits, a)
                for bits, a in scored
                if class_predicate(class_id, a, n, votes_p, feasible, vote, k)
            ]
            bits = _pareto_minimal(opts)
            options += len(opts)
            kept += len(bits)
            sides.append(bits)
        bits_p, bits_r = sides
        if (votes_p > 0 and not bits_p) or (votes_p < n and not bits_r):
            continue
        slots = [bits_p] * votes_p + [bits_r] * (n - votes_p)
        best, agents, visited = _branch_and_bound(slots, len(decisions), best)
        nodes += visited
        if agents is not None:
            votes = (PROPOSAL,) * votes_p + (STATUS_QUO,) * (n - votes_p)
            witness = AdcInstance(votes, agents, feasible)
    observed = None if witness is None else Fraction(best, n)
    match = observed is None or observed == formula
    return BoundsReport(
        class_id, n, k, observed, formula, witness, match, options, kept, nodes
    )
