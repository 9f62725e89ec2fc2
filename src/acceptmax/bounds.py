"""Worst-case acceptance rates over classes of binary-choice instances.

An instance class pairs agent types with a structural assumption on the
agents' satisfying sets, such as "each agent finds at least one feasible
rule acceptable". ``CLASSES`` holds one row per class: its id, the names of
its agent types in ``core.AGENT_TYPES``, the assumption as a per-agent test
``admits(agent, vote, outcome_of, realizable, k)``, the closed-form rate
``formula(n, k, family_size)`` that ``table1_formula`` reads, and its
threshold rank (below); whether the class takes a ``k`` follows from the
rank. ``check_class`` is the one check of a class id, electorate size and
``k``. The worst case is
the minimum, over every instance in the class, of the best achievable
acceptance count, as an exact rational of the electorate size. The search
is exact at every electorate size.

Assumptions that reference acceptable outcomes are read against the
outcomes some feasible rule actually selects on the profile at hand
(an outcome no feasible rule can produce admits no feasible decision,
so acceptability of it alone cannot help any mechanism).

Six exact reductions keep exhaustion tractable; none of them changes
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
   kept options are those of the full listing,
 * vote counts whose certified floor cannot beat the best count carried
   into them are not searched (``_floor``, ``worst_case_rate``): the floor
   is an averaging bound no instance at the vote count goes below, and the
   search replaces its best count only with a strictly smaller one.

The options of a type that names absolute thresholds, or no rules, do not
depend on the vote count: ``shared_options`` lists them once per search,
``has_instance`` or ``gen`` call, and ``class_options`` adds each vote
count's ii representatives and keeps the options the row admits. No
listing outlives the call that built it. At each vote count an option is
scored as an int mask of the feasible decisions it accepts
(``_mask_scorer``), and the masks give the vote count's certified floor
(``_floor``). Only the vote counts the search reaches are pruned by mask,
and only their kept options get the 0/1 vectors the branch and bound
reads; the first vote count at the least floor keeps its masks, and any
other the search reaches is listed and scored again.

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
from typing import Callable, NamedTuple

from .adc import (
    OUTCOMES,
    PROPOSAL,
    STATUS_QUO,
    AdcAgent,
    AdcInstance,
    threshold_family,
    threshold_outcomes,
)
from .core import AGENT_TYPES, ValidationError, substitute_absolute_disjunctivists


def _realized(agent: AdcAgent, outcome_of: dict) -> frozenset:
    """The outcomes an agent's thresholds select on the profile, read by the ii rows only."""
    return frozenset(map(outcome_of.__getitem__, agent.thresholds))


# What each class admits, per agent: ``(agent, vote, outcome_of, realizable,
# k) -> bool``. The caller builds the profile's ``outcome_of`` and
# ``_realizable`` once. Every threshold an absolute agent names is feasible:
# ``shared_options`` lists no other, and ``AdcInstance`` rejects any other for
# an agent that is not implementation-indifferent.


def _admits_any(agent, vote, outcome_of, realizable, k) -> bool:
    return True


def _admits_conj_consistent(agent, vote, outcome_of, realizable, k) -> bool:
    """Some threshold named, and the agent's own vote acceptable."""
    return vote in agent.outcomes and bool(agent.thresholds)


def _admits_conj_realizable(agent, vote, outcome_of, realizable, k) -> bool:
    """Some named threshold selects an acceptable outcome."""
    return any(outcome_of[t] in agent.outcomes for t in agent.thresholds)


def _admits_one_rule(agent, vote, outcome_of, realizable, k) -> bool:
    return len(agent.thresholds) >= 1


def _admits_k_rules(agent, vote, outcome_of, realizable, k) -> bool:
    return len(agent.thresholds) >= k


def _admits_one_outcome(agent, vote, outcome_of, realizable, k) -> bool:
    """Some realizable outcome acceptable."""
    return bool(agent.outcomes & realizable)


def _admits_own_vote(agent, vote, outcome_of, realizable, k) -> bool:
    return vote in agent.outcomes


def _admits_ii_conj_realizable(agent, vote, outcome_of, realizable, k) -> bool:
    """Some realizable outcome both acceptable and realized by a named threshold."""
    return bool(agent.outcomes & realizable & _realized(agent, outcome_of))


def _admits_ii_one_rule(agent, vote, outcome_of, realizable, k) -> bool:
    """Some named threshold realizes a realizable outcome."""
    return bool(_realized(agent, outcome_of) & realizable)


def _admits_ii_last(agent, vote, outcome_of, realizable, k) -> bool:
    """Exactly one realizable outcome acceptable, and a named threshold realizes the other."""
    return len(agent.outcomes & realizable) == 1 and bool(
        _realized(agent, outcome_of) & (realizable - agent.outcomes)
    )


# Closed forms, ``(n, k, family_size) -> Fraction``. The half-electorate rows
# evaluate to ``ceil(n/2)/n``, whose infimum over all sizes is one half.


def _zero(n, k, family_size) -> Fraction:
    return Fraction(0)


def _two_agents(n, k, family_size) -> Fraction:
    return Fraction(2, n)


def _k_of_family(n, k, family_size) -> Fraction:
    return Fraction(math.ceil(Fraction(n * k, family_size)), n)


def _half(n, k, family_size) -> Fraction:
    return Fraction(math.ceil(Fraction(n, 2)), n)


def _everyone(n, k, family_size) -> Fraction:
    return Fraction(1)


class InstanceClass(NamedTuple):
    """One verifiable row: the agent types allowed plus a per-agent assumption.

    ``agent_types`` names rows of ``core.AGENT_TYPES``. ``admits`` is the
    assumption and ``formula`` the closed-form worst-case rate (see the
    module docstring). ``rank`` is the most thresholds an inclusion-minimal
    option of an absolute agent names; other options never read it. None
    means the class takes a ``k``, which is its rank.
    """

    id: str
    agent_types: tuple
    admits: Callable[..., bool]
    formula: Callable[[int, int | None, int], Fraction]
    rank: int | None = 0

    @property
    def needs_k(self) -> bool:
        return self.rank is None


_ABS_DISJ, _ABS_CONJ = ("absolute_disjunctivist",), ("absolute_conjunctivist",)
_II_DISJ, _II_CONJ, _CONSEQ = ("ii_disjunctivist",), ("ii_conjunctivist",), ("consequentialist",)
_ANY = _ABS_DISJ + _ABS_CONJ + _II_DISJ + _II_CONJ

CLASSES = {
    c.id: c
    for c in (
        InstanceClass("any-none", _ANY, _admits_any, _zero),
        InstanceClass("abs-conj-consistent", _ABS_CONJ, _admits_conj_consistent, _zero, rank=1),
        InstanceClass(
            "abs-conj-realizable", _ABS_CONJ, _admits_conj_realizable, _two_agents, rank=1
        ),
        InstanceClass("abs-disj-r1", _ABS_DISJ, _admits_one_rule, _two_agents, rank=1),
        InstanceClass("abs-disj-k", _ABS_DISJ, _admits_k_rules, _k_of_family, rank=None),
        InstanceClass("abs-disj-y1", _ABS_DISJ, _admits_one_outcome, _half),
        InstanceClass("ii-conj-realizable", _II_CONJ, _admits_ii_conj_realizable, _half),
        InstanceClass("ii-disj-r1", _II_DISJ, _admits_ii_one_rule, _half),
        InstanceClass("ii-disj-y1", _II_DISJ, _admits_one_outcome, _half),
        InstanceClass("ii-disj-last", _II_DISJ, _admits_ii_last, _everyone),
        # Not table rows proper, but verified the same way.
        InstanceClass("conseq-y1", _CONSEQ, _admits_one_outcome, _half),
        InstanceClass("conseq-consistent", _CONSEQ, _admits_own_vote, _half),
    )
}


class BoundsReport(NamedTuple):
    class_id: str
    n: int
    k: int | None
    observed_min_rate: Fraction | None
    # L / n for the least certified floor L over vote counts (``_floor``);
    # None, like ``observed_min_rate``, when no vote count fills.
    floor_rate: Fraction | None
    formula_rate: Fraction
    witness: AdcInstance | None
    match: bool
    # Search counters: agent options listed at every vote count, and options
    # kept after pruning and branch-and-bound nodes visited at the vote
    # counts searched.
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
    """Closed-form worst-case rate for a class at electorate size ``n``: its row's ``formula``."""
    check_class(class_id, n, k)
    return CLASSES[class_id].formula(n, k, len(threshold_family(n)))


# ---------------------------------------------------------------------------
# Per-agent option spaces.


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


def shared_options(agent_types, n: int, rank: int | None = None) -> list:
    """Each named type's unfiltered options that every vote count shares, empty sets first.

    One ``(conjunctive, ii, outcome_sets, options)`` entry per type. An
    absolute type's options name at most ``rank`` thresholds (any number
    when None); a type that names no rules has only the empty set. A type
    that names ii thresholds has None for options: its representative sets
    depend on the vote count (``_options_at``). A set the type may not fill
    is empty.
    """
    listing, family = [], threshold_family(n)
    for name in agent_types:
        conj, ii, names_rules, names_outcomes = AGENT_TYPES[name]
        outcome_sets = _Y_SUBSETS if names_outcomes else _Y_SUBSETS[:1]
        options = None
        if not (ii and names_rules):
            rule_sets = _subsets(family, rank) if names_rules else [frozenset()]
            options = [AdcAgent(r, y, conj, ii) for r in rule_sets for y in outcome_sets]
        listing.append((conj, ii, outcome_sets, options))
    return listing


def _options_at(listing, n: int, votes_p: int) -> list:
    """A ``shared_options`` listing's options at one vote count, each type in turn."""
    options = []
    for conj, ii, outcome_sets, shared in listing:
        if shared is None:
            reps = _ii_threshold_reps(n, votes_p)
            shared = [AdcAgent(r, y, conj, ii) for r in reps for y in outcome_sets]
        options += shared
    return options


def class_options(class_id: str, n: int, votes_p: int, k: int | None, listing: list):
    """A vote count's ``outcome_of`` and its class options for each side of the vote.

    The sides are a proposal voter's options, then a status-quo voter's,
    each in canonical order: the options of ``listing``, the class's
    ``shared_options`` at some rank, that the row admits. A listing with
    ``rank=None`` gives the full listing: ``gen`` samples from it.
    """
    outcome_of = threshold_outcomes(n, votes_p)
    realizable = _realizable(outcome_of)
    options = _options_at(listing, n, votes_p)
    admits = CLASSES[class_id].admits
    return outcome_of, [
        [a for a in options if admits(a, vote, outcome_of, realizable, k)]
        for vote in (PROPOSAL, STATUS_QUO)
    ]


def _rank_listing(class_id: str, n: int, k: int | None) -> list:
    """The class's ``shared_options`` at its rank: the cap drops no option Pareto pruning keeps."""
    row = CLASSES[class_id]
    return shared_options(row.agent_types, n, k if row.needs_k else row.rank)


def _listings(class_id: str, n: int, k: int | None, listing: list):
    """Per vote count: ``(votes_p, outcome_of, sides, fills)``, from ``class_options`` on ``listing``.

    ``fills`` says whether each side that has voters has an option.
    """
    for votes_p in range(n + 1):
        outcome_of, sides = class_options(class_id, n, votes_p, k, listing)
        yield votes_p, outcome_of, sides, (votes_p == 0 or sides[0]) and (votes_p == n or sides[1])


def has_instance(class_id: str, n: int, k: int | None = None) -> bool:
    """Whether the class holds an instance at ``n``, stopping at the first vote count that fills."""
    listing = _rank_listing(class_id, n, k)
    return any(fills for *_, fills in _listings(class_id, n, k, listing))


# ---------------------------------------------------------------------------
# Worst-case search.


def _mask_scorer(n: int, outcome_of: dict, options) -> list:
    """Each option's int mask of the decisions it accepts at one vote count, in option order.

    The decisions are ``(t, outcome_of[t])`` for each family threshold
    ``t``, ascending, and ``t`` is bit ``n - t``: the smallest threshold is
    the highest bit, so the mask read as binary digits is the 0/1 vector
    over the decisions. One ``core.substitute_absolute_disjunctivists`` call
    substitutes every option, and an option accepts ``(t, y)`` exactly when
    ``y`` is in its Y' or ``t`` in its R', so its mask is the OR of the block
    of decisions that select each ``y`` in Y' and the bit of each ``t`` in R'.
    """
    bit = {t: 1 << (n - t) for t in threshold_family(n)}
    block = dict.fromkeys(OUTCOMES, 0)
    for t, b in bit.items():
        block[outcome_of[t]] |= b
    masks = []
    for rules, outcomes in substitute_absolute_disjunctivists(options, outcome_of):
        mask = 0
        for y in outcomes:
            mask |= block[y]
        for t in rules:
            mask |= bit[t]
        masks.append(mask)
    return masks


def _pareto_kept(scored, width: int) -> list:
    """The ``(mask, option)`` pairs whose mask no other lies below, as ``(bits, option)``.

    Options with equal masks are represented by the first in canonical
    order, and the kept options stay in canonical order. ``bits`` is the
    mask as a 0/1 vector of ``width`` decisions, highest bit first, built
    for the kept options only.
    """
    firsts = {}
    for mask, agent in scored:
        firsts.setdefault(mask, agent)
    # A mask can only lie below one with more bits set, so visiting by bit
    # count compares each mask with the minimal ones found so far and no
    # others. ``other`` lies below ``mask`` when ``other & mask == other``.
    minimal = []
    for mask in sorted(firsts, key=int.bit_count):
        for other in minimal:
            if other & mask == other:
                break
        else:
            minimal.append(mask)
    keep = set(minimal)
    digits = f"0{width}b"
    return [
        (tuple(map(int, format(mask, digits))), agent)
        for mask, agent in firsts.items()
        if mask in keep
    ]


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
        # Each run of slots that share one list reads its fewest acceptances once.
        if i + 1 == size or slots[i] is not slots[i + 1]:
            fewest = min(sum(bits) for bits, _ in slots[i])
        rest[i] = rest[i + 1] + fewest
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
    # ``visit`` holds itself through its closure: unbinding it frees the
    # search's lists now, not at the cyclic collector's next full pass.
    del visit
    return best, found, nodes


def _scored(n: int, outcome_of: dict, sides) -> dict:
    """Each option of either side -> its ``_mask_scorer`` mask, each option scored once."""
    pool = set().union(*sides)
    return dict(zip(pool, _mask_scorer(n, outcome_of, pool)))


def _floor(n: int, votes_p: int, masks_p, masks_r) -> int:
    """A certified least best count at one vote count, from each side's distinct masks.

    Take a set S of feasible decisions. Every proposal voter accepts at
    least ``m_P(S)`` decisions of S, the fewest bits of ``mask & S`` over the
    proposal side's options, and every status-quo voter at least ``m_R(S)``.
    So the counts over S sum to at least ``votes_p * m_P(S) + (n - votes_p) *
    m_R(S)``, and every instance at this vote count has a decision of S
    accepted by at least the ceiling of that sum over ``|S|``. Four sets are
    tried, each only when non-empty: all decisions, the proposal block
    (``t <= votes_p``), the status-quo block (``t > votes_p``), and the pair
    made of each block's smallest threshold. The floor is the best of them.

    The masks come from the rank-capped listing, which is enough: each
    minimum is attained at an inclusion-minimal class option, since
    acceptance is monotone in an agent's thresholds and outcomes and the
    class predicates are upward-closed (module docstring), and the listing
    holds every inclusion-minimal option. A side without voters is not read.
    """
    low = threshold_family(n).start
    first_r = max(votes_p + 1, low)  # the smallest status-quo threshold, n + 1 if none
    everything = (1 << (n - low + 1)) - 1
    block_r = (1 << (n - first_r + 1)) - 1  # t is bit n - t
    block_p = everything ^ block_r
    pair = (1 << (n - low) if block_p else 0) | (1 << (n - first_r) if block_r else 0)
    floor = 0
    for s in {everything, block_p, block_r, pair} - {0}:
        total = 0
        if votes_p:
            total += votes_p * min(map(int.bit_count, map(s.__and__, masks_p)))
        if votes_p < n:
            total += (n - votes_p) * min(map(int.bit_count, map(s.__and__, masks_r)))
        floor = max(floor, -(-total // s.bit_count()))
    return floor


def _floors(class_id: str, n: int, k: int | None, listing: list):
    """Each vote count's floor, the options listed, and the first vote count at the least floor.

    Every vote count is listed and scored once. A vote count that does not
    fill has no instance and a floor of None. The first vote count at the
    least floor is held as ``(votes_p, sides, mask_of)`` for the search; the
    others' listings are dropped, so at most two are alive at once. The held
    entry is None when no vote count fills.
    """
    floors, held, options = [], None, 0
    for votes_p, outcome_of, sides, fills in _listings(class_id, n, k, listing):
        options += sum(map(len, sides))
        floor = None
        if fills:
            mask_of = _scored(n, outcome_of, sides)
            floor = _floor(n, votes_p, *(set(map(mask_of.__getitem__, side)) for side in sides))
            if held is None or floor < floors[held[0]]:
                held = votes_p, sides, mask_of
        floors.append(floor)
    return floors, options, held


def _search(class_id: str, n: int, k: int | None, listing: list, floors, held, best: int):
    """Branch and bound over the vote counts whose floor is below ``best``, ascending.

    The best count carries over from one vote count to the next, and each
    vote count's floor is read against it when the search reaches it. The
    held vote count reuses its sides and masks; any other is listed and
    scored again. Each side keeps its Pareto-minimal options. Returns
    ``(best, witness, kept, nodes)``; the witness is None when no leaf
    beats the ``best`` passed in.
    """
    width = len(threshold_family(n))
    witness = None
    kept = nodes = 0
    for votes_p, floor in enumerate(floors):
        if floor is None or floor >= best:
            continue
        if votes_p == held[0]:
            _, sides, mask_of = held
        else:
            outcome_of, sides = class_options(class_id, n, votes_p, k, listing)
            mask_of = _scored(n, outcome_of, sides)
        kept_p, kept_r = (_pareto_kept([(mask_of[a], a) for a in side], width) for side in sides)
        kept += len(kept_p) + len(kept_r)
        slots = [kept_p] * votes_p + [kept_r] * (n - votes_p)
        best, agents, visited = _branch_and_bound(slots, width, best)
        nodes += visited
        if agents is not None:
            votes = (PROPOSAL,) * votes_p + (STATUS_QUO,) * (n - votes_p)
            witness = AdcInstance(votes, agents)
    return best, witness, kept, nodes


def worst_case_rate(class_id: str, n: int, k: int | None = None) -> BoundsReport:
    """Exact minimum of the best achievable acceptance rate over an instance class.

    Certify first, search once. Pass 1 (``_floors``) gives each vote count a
    certified floor (``_floor``); the least of them, L, bounds the minimum
    from below. Pass 2 starts the branch and bound at ``best = L + 1``, so it
    searches only the vote counts whose floor is L, from the first. If no
    leaf reaches L, the same loop runs again from ``n + 1``, skipping only
    the vote counts whose floor is at least the best count found so far.

    The witness is the one the search of every vote count finds: the first
    minimal multiset at the first vote count that reaches the minimum. Only
    a strictly smaller count replaces ``best``, so a vote count whose floor
    is at least ``best`` can add nothing; the first vote count that reaches
    the minimum has a floor no greater than it, and its first minimal leaf
    lies in no branch whose bound is at least ``best``. The report's ``k`` is
    None for a class that takes none.
    """
    formula = table1_formula(class_id, n, k)
    if not CLASSES[class_id].needs_k:
        k = None
    listing = _rank_listing(class_id, n, k)
    floors, options, held = _floors(class_id, n, k, listing)
    least = witness = None
    kept = nodes = 0
    if held is not None:
        least = floors[held[0]]
        best, witness, kept, nodes = _search(class_id, n, k, listing, floors, held, least + 1)
        if witness is None:
            best, witness, more_kept, more_nodes = _search(
                class_id, n, k, listing, floors, held, n + 1
            )
            kept, nodes = kept + more_kept, nodes + more_nodes
    observed = None if witness is None else Fraction(best, n)
    floor_rate = None if least is None else Fraction(least, n)
    match = observed is None or observed == formula
    return BoundsReport(
        class_id, n, k, observed, floor_rate, formula, witness, match, options, kept, nodes
    )
