"""Worst-case acceptance rates over classes of binary-choice instances.

An instance class pairs a (homogeneous) agent type with a structural
assumption on the agents' satisfying sets, such as "each agent finds at
least one feasible rule acceptable". The worst case is the minimum, over
every instance in the class, of the best achievable acceptance count, as
an exact rational of the electorate size. Classes are exhausted through
``EXACT_N_MAX`` agents; larger ones are probed by seeded random search,
which can only confirm the lower bound.

Assumptions that reference acceptable outcomes are read against the
outcomes some feasible rule actually selects on the profile at hand
(an outcome no feasible rule can produce admits no feasible decision,
so acceptability of it alone cannot help any mechanism).

Four exact reductions keep exhaustion tractable; none of them changes
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
   decisions cannot raise any decision's count).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .adc import (
    OUTCOMES,
    PROPOSAL,
    STATUS_QUO,
    AdcAgent,
    AdcInstance,
    adc_accepts,
    majority_threshold,
    supermajority_outcome,
    threshold_family,
)
from .core import ValidationError


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

EXACT_N_MAX = 8


@dataclass(frozen=True)
class BoundsReport:
    class_id: str
    n: int
    k: int | None
    mode: str  # "exhaustive" | "randomized"
    seed: int | None
    samples: int | None
    observed_min_rate: Fraction | None
    formula_rate: Fraction
    witness: AdcInstance | None
    match: bool
    # Exhaustive search counters summed over vote counts (None when randomized):
    # agent options seen, options kept after pruning, multisets visited.
    options: int | None = None
    kept: int | None = None
    groups: int | None = None


def table1_formula(class_id: str, n: int, k: int | None = None) -> Fraction:
    """Closed-form worst-case rate for a class at electorate size ``n``.

    Values are exact for each ``n``; the half-electorate rows evaluate to
    ``ceil(n/2)/n``, whose infimum over all sizes is one half.
    """
    cls = CLASSES[class_id]
    if cls.needs_k and k is None:
        raise ValidationError(f"class {class_id!r} requires parameter k")
    if n < 2:
        raise ValidationError("worst-case rates are defined for n >= 2")
    family_size = len(threshold_family(n))
    if class_id in ("any-none", "abs-conj-consistent"):
        return Fraction(0)
    if class_id in ("abs-conj-realizable", "abs-disj-r1"):
        return Fraction(2, n)
    if class_id == "abs-disj-k":
        if not 1 <= k <= family_size:
            raise ValidationError(f"k={k} outside [1, {family_size}]")
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


def _family_subsets(n: int):
    family = sorted(threshold_family(n))
    for size in range(len(family) + 1):
        yield from (frozenset(c) for c in itertools.combinations(family, size))


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


def _realizable_feasible(n: int, votes_p: int, feasible) -> frozenset:
    return frozenset(supermajority_outcome(t, votes_p, n) for t in feasible)


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
    realizable = _realizable_feasible(n, votes_p, feasible)
    r_feas = agent.thresholds & frozenset(feasible)
    if class_id == "any-none":
        return True
    if class_id == "abs-conj-consistent":
        return vote in agent.outcomes and bool(r_feas)
    if class_id == "abs-conj-realizable":
        return any(
            supermajority_outcome(t, votes_p, n) in agent.outcomes for t in r_feas
        )
    if class_id == "abs-disj-r1":
        return len(r_feas) >= 1
    if class_id == "abs-disj-k":
        return len(r_feas) >= k
    if class_id in ("abs-disj-y1", "ii-disj-y1", "conseq-y1"):
        return bool(agent.outcomes & realizable)
    if class_id == "ii-conj-realizable":
        return bool(agent.outcomes & realizable & agent.realized(votes_p))
    if class_id == "ii-disj-r1":
        return bool(agent.realized(votes_p) & realizable)
    if class_id == "ii-disj-last":
        return len(agent.outcomes & realizable) == 1 and bool(
            agent.realized(votes_p) & (realizable - agent.outcomes)
        )
    if class_id == "conseq-consistent":
        return vote in agent.outcomes
    raise ValidationError(f"unknown class {class_id!r}")


def _kind_options(agent_kind: str, n: int, votes_p: int):
    """Unfiltered (type-consistent) agent options, empty sets first."""
    if agent_kind == "conseq":
        return [
            AdcAgent(frozenset(), y, conjunctive=False, implementation_indifferent=True)
            for y in _Y_SUBSETS
        ]
    if agent_kind in ("abs_disj", "abs_conj"):
        conj = agent_kind == "abs_conj"
        return [
            AdcAgent(r, y, conjunctive=conj, implementation_indifferent=False)
            for r in _family_subsets(n)
            for y in _Y_SUBSETS
        ]
    if agent_kind in ("ii_disj", "ii_conj"):
        conj = agent_kind == "ii_conj"
        return [
            AdcAgent(r, y, conjunctive=conj, implementation_indifferent=True)
            for r in _ii_threshold_reps(n, votes_p)
            for y in _Y_SUBSETS
        ]
    if agent_kind == "any":
        opts = []
        for kind in ("abs_disj", "abs_conj", "ii_disj", "ii_conj"):
            opts.extend(_kind_options(kind, n, votes_p))
        return opts
    raise ValidationError(f"unknown agent kind {agent_kind!r}")


def agent_options(class_id, n, votes_p, vote, feasible=None, k=None):
    """Class-satisfying agent options for one voter, in canonical order."""
    cls = CLASSES[class_id]
    feasible = frozenset(feasible or threshold_family(n))
    return [
        a
        for a in _kind_options(cls.agent_kind, n, votes_p)
        if class_predicate(class_id, a, n, votes_p, feasible, vote, k)
    ]


def enumerate_instances(class_id: str, n: int, k: int | None = None):
    """Deterministic stream of class instances, without the sweep's reductions.

    Vote vectors are full and agents are ordered; only implementation-
    indifferent threshold sets are reduced to their representatives.
    """
    feasible = frozenset(threshold_family(n))
    for votes in itertools.product(OUTCOMES, repeat=n):
        votes_p = sum(1 for v in votes if v == PROPOSAL)
        per_agent = [
            agent_options(class_id, n, votes_p, v, feasible, k) for v in votes
        ]
        if any(not opts for opts in per_agent):
            continue
        for agents in itertools.product(*per_agent):
            yield AdcInstance(votes=votes, agents=agents, feasible_thresholds=feasible)


# ---------------------------------------------------------------------------
# Worst-case search.


def _decision_bits(agent: AdcAgent, decisions, votes_p):
    return tuple(int(adc_accepts(agent, t, y, votes_p)) for t, y in decisions)


def _pareto_minimal(bit_options):
    """The options whose acceptance vector no other option's lies below.

    Options with equal vectors are represented by the first in canonical order.
    """
    firsts = {}
    for bits, agent in bit_options:
        firsts.setdefault(bits, agent)
    return [
        (bits, agent)
        for bits, agent in firsts.items()
        if not any(
            other != bits and all(o <= b for o, b in zip(other, bits))
            for other in firsts
        )
    ]


def _sweep_one_vote_count(class_id, n, votes_p, k):
    """Exact minimum best-count over class instances with this vote count.

    Returns ``(result, (options, kept, groups))``: ``result`` is
    ``(min_count, witness AdcInstance)``, or None when the class admits no
    instance on such profiles; the counters are the agent options listed,
    those kept after pruning, and the multisets visited.
    """
    feasible = frozenset(threshold_family(n))
    opts_p = agent_options(class_id, n, votes_p, PROPOSAL, feasible, k)
    opts_r = agent_options(class_id, n, votes_p, STATUS_QUO, feasible, k)
    decisions = sorted(
        ((t, supermajority_outcome(t, votes_p, n)) for t in feasible),
        key=lambda d: (d[1], d[0]),
    )
    bits_p = _pareto_minimal((_decision_bits(a, decisions, votes_p), a) for a in opts_p)
    bits_r = _pareto_minimal((_decision_bits(a, decisions, votes_p), a) for a in opts_r)
    options, kept = len(opts_p) + len(opts_r), len(bits_p) + len(bits_r)
    if (votes_p > 0 and not bits_p) or (votes_p < n and not bits_r):
        return None, (options, kept, 0)
    votes = (PROPOSAL,) * votes_p + (STATUS_QUO,) * (n - votes_p)
    width = len(decisions)
    groups = 0
    best_count, best_agents = None, None
    for group_p in itertools.combinations_with_replacement(bits_p, votes_p):
        base = [0] * width
        for bits, _ in group_p:
            for j in range(width):
                base[j] += bits[j]
        for group_r in itertools.combinations_with_replacement(bits_r, n - votes_p):
            groups += 1
            totals = list(base)
            for bits, _ in group_r:
                for j in range(width):
                    totals[j] += bits[j]
            count = max(totals)
            if best_count is None or count < best_count:
                best_count = count
                best_agents = tuple(a for _, a in group_p) + tuple(
                    a for _, a in group_r
                )
                if best_count == 0:
                    break
        if best_count == 0:
            break
    counters = (options, kept, groups)
    if best_count is None:
        return None, counters
    return (best_count, AdcInstance(votes, best_agents, feasible)), counters


def _min_rate_exhaustive(class_id, n, k):
    """(min rate, witness, summed (options, kept, groups)) over all vote counts."""
    best_rate, witness = None, None
    totals = [0, 0, 0]
    for votes_p in range(n + 1):
        res, counters = _sweep_one_vote_count(class_id, n, votes_p, k)
        totals = [a + b for a, b in zip(totals, counters)]
        if res is None:
            continue
        rate = Fraction(res[0], n)
        if best_rate is None or rate < best_rate:
            best_rate, witness = rate, res[1]
    return best_rate, witness, tuple(totals)


def _instance_best_count(instance: AdcInstance) -> int:
    votes_p = instance.votes_p
    best = 0
    for t in instance.feasible_thresholds:
        y = supermajority_outcome(t, votes_p, instance.n)
        count = sum(1 for a in instance.agents if adc_accepts(a, t, y, votes_p))
        if count > best:
            best = count
    return best


def _min_rate_randomized(class_id, n, k, seed, samples):
    rng = random.Random(seed)
    feasible = frozenset(threshold_family(n))
    option_cache = {}
    best_rate, witness = None, None
    for _ in range(samples):
        for _attempt in range(1000):
            votes = tuple(rng.choice(OUTCOMES) for _ in range(n))
            votes_p = sum(1 for v in votes if v == PROPOSAL)
            per_agent = []
            for v in votes:
                key = (votes_p, v)
                if key not in option_cache:
                    option_cache[key] = agent_options(
                        class_id, n, votes_p, v, feasible, k
                    )
                per_agent.append(option_cache[key])
            if all(per_agent):
                break
        else:
            raise ValidationError(f"class {class_id!r} unsatisfiable for n={n}")
        agents = tuple(rng.choice(opts) for opts in per_agent)
        instance = AdcInstance(votes, agents, feasible)
        rate = Fraction(_instance_best_count(instance), n)
        if best_rate is None or rate < best_rate:
            best_rate, witness = rate, instance
    return best_rate, witness


def worst_case_rate(
    class_id: str,
    n: int,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 100_000,
    k: int | None = None,
) -> BoundsReport:
    """Minimize the best achievable acceptance rate over an instance class."""
    if class_id not in CLASSES:
        raise ValidationError(f"unknown class {class_id!r}")
    formula = table1_formula(class_id, n, k)
    if mode == "exhaustive":
        observed, witness, counters = _min_rate_exhaustive(class_id, n, k)
        match = observed is None or observed == formula
        return BoundsReport(
            class_id, n, k, "exhaustive", None, None, observed, formula, witness, match,
            *counters,
        )
    if mode == "randomized":
        observed, witness = _min_rate_randomized(class_id, n, k, seed, samples)
        match = observed is None or observed >= formula
        return BoundsReport(
            class_id, n, k, "randomized", seed, samples, observed, formula, witness, match
        )
    raise ValidationError(f"unknown mode {mode!r}")


def pick_mode(n: int) -> str:
    """Exact search through ``EXACT_N_MAX`` agents, random search above."""
    return "exhaustive" if n <= EXACT_N_MAX else "randomized"


def verify_row(
    class_id: str,
    n_list,
    mode: str = "auto",
    seed: int = 0,
    samples: int = 100_000,
    k: int | None = None,
):
    """Worst-case search per size, compared against the closed form."""
    reports = []
    for n in n_list:
        chosen = pick_mode(n) if mode == "auto" else mode
        reports.append(worst_case_rate(class_id, n, chosen, seed, samples, k))
    return reports


def majority_mechanism_count(instance: AdcInstance) -> int:
    """Acceptance count of the fixed mechanism that always applies majority rule."""
    t = majority_threshold(instance.n)
    y = supermajority_outcome(t, instance.votes_p, instance.n)
    return sum(1 for a in instance.agents if adc_accepts(a, t, y, instance.votes_p))
