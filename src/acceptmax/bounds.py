"""Worst-case acceptance rates over classes of binary-choice instances.

An instance class pairs agent types with a structural assumption on the
agents' satisfying sets, such as "each agent finds at least one feasible
rule acceptable". ``CLASSES`` holds one row per class: its id, the names of
its agent types in ``core.AGENT_TYPES`` and its threshold rank (below);
whether the class takes a ``k`` follows from the rank. ``check_class`` is
the one check of a class id, electorate size and ``k``. The worst case is
the minimum, over every instance in the class, of the best achievable
acceptance count, as an exact rational of the electorate size. The search
is exact at every electorate size.

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

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .adc import (
    OUTCOMES,
    PROPOSAL,
    STATUS_QUO,
    AdcAgent,
    AdcInstance,
    threshold_family,
    threshold_outcomes,
)
from .core import AGENT_TYPES, ValidationError, substitute_absolute_disjunctivist


class InstanceClass(NamedTuple):
    """One verifiable row: the agent types allowed plus a per-agent assumption.

    ``agent_types`` names rows of ``core.AGENT_TYPES``. ``rank`` is the most
    thresholds an inclusion-minimal option of an absolute agent names (see
    the module docstring); other options never read it. None means the
    class takes a ``k``, which is its rank.
    """

    id: str
    agent_types: tuple
    rank: int | None = 0

    @property
    def needs_k(self) -> bool:
        return self.rank is None


_ABS_DISJ, _ABS_CONJ = ("absolute_disjunctivist",), ("absolute_conjunctivist",)
_II_DISJ, _II_CONJ, _CONSEQ = ("ii_disjunctivist",), ("ii_conjunctivist",), ("consequentialist",)

CLASSES = {
    c.id: c
    for c in (
        InstanceClass("any-none", _ABS_DISJ + _ABS_CONJ + _II_DISJ + _II_CONJ),
        InstanceClass("abs-conj-consistent", _ABS_CONJ, rank=1),
        InstanceClass("abs-conj-realizable", _ABS_CONJ, rank=1),
        InstanceClass("abs-disj-r1", _ABS_DISJ, rank=1),
        InstanceClass("abs-disj-k", _ABS_DISJ, rank=None),
        InstanceClass("abs-disj-y1", _ABS_DISJ),
        InstanceClass("ii-conj-realizable", _II_CONJ),
        InstanceClass("ii-disj-r1", _II_DISJ),
        InstanceClass("ii-disj-y1", _II_DISJ),
        InstanceClass("ii-disj-last", _II_DISJ),
        # Not table rows proper, but verified the same way.
        InstanceClass("conseq-y1", _CONSEQ),
        InstanceClass("conseq-consistent", _CONSEQ),
    )
}


class BoundsReport(NamedTuple):
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


def check_class(class_id: str, n: int, k: int | None) -> None:
    """Reject an unknown class, ``n`` below 2, or a missing or out-of-range ``k``.

    The checks run in that order. ``k`` is read only for a class that takes
    one, and must lie in [1, family size].
    """
    if class_id not in CLASSES:
        raise ValidationError(f"unknown class {class_id!r}")
    if n < 2:
        raise ValidationError("worst-case rates are defined for n >= 2")
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
    check_class(class_id, n, k)
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


def _subsets(items, rank: int | None = None) -> list:
    """Subsets of ``items`` by size, then in ``items`` order; at most ``rank`` long."""
    sizes = range(len(items) + 1 if rank is None else rank + 1)
    return [frozenset(c) for size in sizes for c in itertools.combinations(items, size)]


_Y_SUBSETS = _subsets(OUTCOMES)  # {}, {p}, {r}, {p, r}


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


def _realizable(outcome_of: dict) -> frozenset:
    """The outcomes the family thresholds select; ``outcome_of`` maps each ``t`` in [1, n]."""
    return frozenset(map(outcome_of.__getitem__, threshold_family(len(outcome_of))))


def class_predicate(
    class_id: str,
    agent: AdcAgent,
    vote: str,
    outcome_of: dict,
    realizable: frozenset,
    k: int | None = None,
) -> bool:
    """Whether one agent's satisfying set meets the class assumption at one profile.

    The caller builds the profile's ``outcome_of`` and ``_realizable`` once.
    Every threshold an absolute agent names is feasible: ``_type_options``
    lists no other, and ``AdcInstance`` rejects any other for an agent that
    is not implementation-indifferent.
    """
    if class_id == "any-none":
        return True
    if class_id == "abs-conj-consistent":
        return vote in agent.outcomes and bool(agent.thresholds)
    if class_id == "abs-conj-realizable":
        return any(outcome_of[t] in agent.outcomes for t in agent.thresholds)
    if class_id == "abs-disj-r1":
        return len(agent.thresholds) >= 1
    if class_id == "abs-disj-k":
        return len(agent.thresholds) >= k
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


def _type_options(agent_types, n: int, votes_p: int, rank: int | None = None) -> list:
    """Unfiltered agent options of each named type in turn, empty sets first.

    Absolute agents name at most ``rank`` thresholds (any number when None),
    ii agents one set per realized-outcome class. A set the type may not fill
    is empty.
    """
    options, family = [], threshold_family(n)
    for name in agent_types:
        conj, ii, names_rules, names_outcomes = AGENT_TYPES[name]
        rule_sets = [frozenset()]
        if names_rules:
            rule_sets = _ii_threshold_reps(n, votes_p) if ii else _subsets(family, rank)
        outcome_sets = _Y_SUBSETS if names_outcomes else _Y_SUBSETS[:1]
        options += [AdcAgent(r, y, conj, ii) for r in rule_sets for y in outcome_sets]
    return options


def class_options(class_id: str, n: int, votes_p: int, k: int | None, rank: int | None = None):
    """A vote count's ``outcome_of`` and its class options for each side of the vote.

    The sides are a proposal voter's options, then a status-quo voter's,
    each in canonical order, naming at most ``rank`` thresholds.
    ``rank=None`` gives the full listing: ``gen`` samples from it.
    """
    outcome_of = threshold_outcomes(n, votes_p)
    realizable = _realizable(outcome_of)
    options = _type_options(CLASSES[class_id].agent_types, n, votes_p, rank)
    return outcome_of, [
        [a for a in options if class_predicate(class_id, a, vote, outcome_of, realizable, k)]
        for vote in (PROPOSAL, STATUS_QUO)
    ]


def _listings(class_id: str, n: int, k: int | None):
    """Per vote count: ``(votes_p, outcome_of, sides, fills)``, from ``class_options`` at the rank.

    ``fills`` says whether each side that has voters has an option. The
    rank cap drops no option Pareto pruning keeps.
    """
    row = CLASSES[class_id]
    rank = k if row.needs_k else row.rank
    for votes_p in range(n + 1):
        outcome_of, sides = class_options(class_id, n, votes_p, k, rank)
        yield votes_p, outcome_of, sides, (votes_p == 0 or sides[0]) and (votes_p == n or sides[1])


def has_instance(class_id: str, n: int, k: int | None = None) -> bool:
    """Whether the class holds an instance at ``n``, stopping at the first vote count that fills."""
    return any(fills for *_, fills in _listings(class_id, n, k))


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
    reaches the minimum. Each option of a vote count's ``_listings`` is
    scored once, and each side keeps its Pareto-minimal options. The
    report's ``k`` is None for a class that takes none.
    """
    formula = table1_formula(class_id, n, k)
    if not CLASSES[class_id].needs_k:
        k = None
    best, witness = n + 1, None
    options = kept = nodes = 0
    for votes_p, outcome_of, sides, fills in _listings(class_id, n, k):
        decisions = [(t, outcome_of[t]) for t in threshold_family(n)]
        bits_of = {a: _decision_bits(a, decisions, outcome_of) for a in set().union(*sides)}
        options += sum(map(len, sides))
        bits_p, bits_r = (_pareto_minimal([(bits_of[a], a) for a in side]) for side in sides)
        kept += len(bits_p) + len(bits_r)
        if not fills:
            continue
        slots = [bits_p] * votes_p + [bits_r] * (n - votes_p)
        best, agents, visited = _branch_and_bound(slots, len(decisions), best)
        nodes += visited
        if agents is not None:
            votes = (PROPOSAL,) * votes_p + (STATUS_QUO,) * (n - votes_p)
            witness = AdcInstance(votes, agents)
    observed = None if witness is None else Fraction(best, n)
    match = observed is None or observed == formula
    return BoundsReport(
        class_id, n, k, observed, formula, witness, match, options, kept, nodes
    )
