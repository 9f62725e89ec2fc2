"""Seeded instance generator for the benchmark.

Everything here is standard library only and never imports ``acceptmax``:
the program under test receives nothing but the files written by
:func:`write_inputs`. The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import os
import random

AGENT_TYPES = (
    "consequentialist",
    "absolute_proceduralist",
    "ii_proceduralist",
    "absolute_disjunctivist",
    "absolute_conjunctivist",
    "ii_disjunctivist",
    "ii_conjunctivist",
)
VOTE_POLICIES = ("nearer", "status-quo", "proposal")

LARGE_N = 3200
MAX_RULES = 4  # sparse rule sets: at most this many thresholds / rules per agent
SPARSE_FAMILY = 64
SMALL_FILES = 3000
SMALL_N = (3, 9)
COLD_N = 7

BOUNDS_N = (3, 4, 5)
BOUNDS_K = 2
BOUNDS_CLASSES = (
    "abs-conj-consistent",
    "abs-conj-realizable",
    "abs-disj-k",
    "abs-disj-r1",
    "abs-disj-y1",
    "any-none",
    "conseq-consistent",
    "conseq-y1",
    "ii-conj-realizable",
    "ii-disj-last",
    "ii-disj-r1",
    "ii-disj-y1",
)


def bounds_argv(class_id, sizes=BOUNDS_N):
    """Exhaustive ``bounds`` call for one class, or for ``all`` of them."""
    ns = [arg for n in sizes for arg in ("--n", str(n))]
    return ["bounds", class_id, *ns, "--k", str(BOUNDS_K), "--mode", "exhaustive"]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _family(n):
    return range(n // 2 + 1, n + 1)


def _is_ii(type_name):
    # Consequentialists parse as implementation-indifferent agents with no rules.
    return type_name.startswith("ii_") or type_name == "consequentialist"


def _rule_count(rng, type_name):
    if type_name == "consequentialist":
        return 0
    if type_name.endswith("proceduralist") or type_name.endswith("conjunctivist"):
        return rng.randint(1, MAX_RULES)
    return rng.randint(0, MAX_RULES)


def _outcome_set(rng, type_name, universe):
    if type_name.endswith("proceduralist"):
        return []
    lo = 1 if type_name.endswith("conjunctivist") or type_name == "consequentialist" else 0
    return sorted(rng.sample(universe, rng.randint(lo, min(2, len(universe)))))


def _votes(rng, n, lo, hi):
    votes_p = rng.randint(round(lo * n), round(hi * n))
    votes = ["p"] * votes_p + ["r"] * (n - votes_p)
    rng.shuffle(votes)
    return "".join(votes)


def adc_instance(rng, n, types, vote_range=(0.0, 1.0), feasible_count=None):
    """Binary-choice instance; ``types`` is one agent type or a tuple to draw from.

    With ``feasible_count`` only that many family thresholds are feasible, and
    agents that must name family members pick them from the feasible ones.
    """
    family = _family(n)
    feasible = None
    if feasible_count is not None:
        feasible = sorted(rng.sample(family, feasible_count))
        family = feasible
    agents = []
    for _ in range(n):
        type_name = types if isinstance(types, str) else rng.choice(types)
        pool = range(1, n + 1) if _is_ii(type_name) else family
        k = min(_rule_count(rng, type_name), len(pool))
        agents.append(
            {
                "type": type_name,
                "Y": _outcome_set(rng, type_name, ["p", "r"]),
                "R_t": sorted(rng.sample(pool, k)),
            }
        )
    obj = {"kind": "adc", "n": n, "votes": _votes(rng, n, *vote_range), "agents": agents}
    if feasible is not None:
        obj["feasible_t"] = feasible
    return obj


def generic_instance(rng, n, types, n_outcomes, n_rules):
    """Explicit (rule, outcome) instance with at least one feasible decision."""
    outcomes = [f"o{i}" for i in range(n_outcomes)]
    rules = [{"id": f"q{i}", "value": rng.choice(outcomes)} for i in range(n_rules)]
    feasible_outcomes = sorted(rng.sample(outcomes, max(1, (3 * n_outcomes) // 4)))
    feasible_rules = sorted(
        r["id"] for r in rules if rng.random() < 0.75 or r is rules[0]
    )
    if rules[0]["value"] not in feasible_outcomes:
        feasible_outcomes = sorted(set(feasible_outcomes) | {rules[0]["value"]})
    rule_ids = [r["id"] for r in rules]
    agents = []
    for _ in range(n):
        type_name = types if isinstance(types, str) else rng.choice(types)
        k = min(_rule_count(rng, type_name), n_rules)
        agents.append(
            {
                "type": type_name,
                "Y": _outcome_set(rng, type_name, outcomes),
                "R": sorted(rng.sample(rule_ids, k)),
            }
        )
    return {
        "kind": "generic",
        "outcomes": outcomes,
        "rules": rules,
        "feasible_outcomes": feasible_outcomes,
        "feasible_rules": feasible_rules,
        "agents": agents,
    }


def amendment_instance(rng, n):
    family = list(_family(n))
    return {
        "kind": "amendment",
        "n": n,
        "status_quo_t": rng.choice(family),
        "peaks_t": [rng.choice(family) for _ in range(n)],
        "vote_policy": rng.choice(VOTE_POLICIES),
    }


def solve_large(rng):
    """One adc instance per agent type plus mixed ones, adc and generic, at LARGE_N."""
    n = LARGE_N
    # Proposal support between 55% and 95% keeps both outcomes realizable.
    votes = (0.55, 0.95)
    # The implementation-indifferent instances get a sparse feasible family:
    # it varies the family size the adc mechanisms iterate over and keeps the
    # per-seed oracle check (feasible decisions x agents) affordable.
    out = [
        (f"adc-{t}", adc_instance(rng, n, t, votes, SPARSE_FAMILY if _is_ii(t) else None))
        for t in AGENT_TYPES
    ]
    out.append(("adc-mixed", adc_instance(rng, n, AGENT_TYPES, votes)))
    for name, types in (
        ("generic-mixed", AGENT_TYPES),
        ("generic-absolute_disjunctivist", "absolute_disjunctivist"),
        ("generic-ii_conjunctivist", "ii_conjunctivist"),
    ):
        out.append((name, generic_instance(rng, n, types, n_outcomes=8, n_rules=256)))
    return out


def solve_small(rng):
    """A stream of small adc, generic and amendment files in seeded order."""
    out = []
    for i in range(SMALL_FILES):
        n = rng.randint(*SMALL_N)
        kind = rng.choice(("adc", "adc", "generic", "amendment"))
        if kind == "adc":
            # Half homogeneous (each specialized mechanism), half mixed.
            types = rng.choice(AGENT_TYPES) if rng.random() < 0.5 else AGENT_TYPES
            obj = adc_instance(rng, n, types)
        elif kind == "generic":
            types = rng.choice(AGENT_TYPES) if rng.random() < 0.5 else AGENT_TYPES
            obj = generic_instance(rng, n, types, n_outcomes=3, n_rules=6)
        else:
            obj = amendment_instance(rng, n)
        out.append((f"small-{i:05d}-{kind}", obj))
    return out


WORKLOAD_INPUTS = {
    "solve-large": solve_large,
    "solve-small": solve_small,
    "bounds-table": lambda rng: [],
}


def write_inputs(workload, seed, directory):
    """Write the workload's files; return [(name, path, obj)] in run order.

    The last entry is always ``cold``: a small mixed adc instance used for the
    warm-up operation and for cold-start children.
    """
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOAD_INPUTS[workload](rng)
    items.append(("cold", adc_instance(rng, COLD_N, AGENT_TYPES)))
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, obj in items:
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(obj))
        written.append((name, path, obj))
    return written


def describe(items):
    """Input properties: electorate sizes, agent-type mix, total rule-set size, bytes."""
    kinds, types = {}, {}
    sizes, sum_rules, total_bytes = [], 0, 0
    for _name, path, obj in items:
        kinds[obj["kind"]] = kinds.get(obj["kind"], 0) + 1
        total_bytes += os.path.getsize(path)
        agents = obj.get("agents", [])
        sizes.append(obj.get("n", len(agents)))
        for agent in agents:
            types[agent["type"]] = types.get(agent["type"], 0) + 1
            sum_rules += len(agent.get("R_t", agent.get("R", [])))
    return {
        "files": len(items),
        "kinds": kinds,
        "n_min": min(sizes),
        "n_max": max(sizes),
        "n_total": sum(sizes),
        "agent_types": dict(sorted(types.items())),
        "sum_rule_set_sizes": sum_rules,
        "bytes": total_bytes,
    }
