"""Output checks for every benchmark operation.

Solve outputs are checked against the brute-force oracle and the acceptance
predicate of ``acceptmax.core``; amendment outputs against ``h_threshold``;
bounds rows against the closed-form worst-case table written out here.
Expectations are computed once per run (that is, once per seed), after the
timed phases.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

from acceptmax import adc, amendment, core, serialize

from .gen import BOUNDS_K


class SolveExpectation:
    """The oracle's best count and the generic instance to test acceptance on.

    Oracle counts are cached under ``cache_dir`` by the file's content hash,
    so a seed that runs again skips the brute force.
    """

    def __init__(self, path, cache_dir):
        with open(path, "rb") as fh:
            cached = os.path.join(cache_dir, hashlib.sha256(fh.read()).hexdigest())
        instance = serialize.load_instance(path)
        if isinstance(instance, adc.AdcInstance):
            instance = adc.adc_to_generic(instance)
        self.instance = instance
        if os.path.exists(cached):
            with open(cached, encoding="utf-8") as fh:
                self.best_count = int(fh.read())
            return
        self.best_count = core.oracle_max_accept(instance).report.acceptance_count
        os.makedirs(cache_dir, exist_ok=True)
        with open(cached + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(str(self.best_count))
        os.replace(cached + ".tmp", cached)


def check_solve(text, expect):
    """Return (problem or None, decision) for one ``solve`` output."""
    try:
        out = json.loads(text)
        rule_id, outcome = out["decision"]["rule"], out["decision"]["outcome"]
        accepted_by, count = out["accepted_by"], out["count"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable solve output: {exc!r}", None
    g = expect.instance
    decision = (rule_id, outcome)
    if g.rule_value.get(rule_id) != outcome:
        return f"decision {decision} is not a (rule, value) pair", decision
    if rule_id not in g.feasible_rule_ids or outcome not in g.feasible_outcomes:
        return f"decision {decision} is infeasible", decision
    if count != expect.best_count:
        return f"count {count} != oracle maximum {expect.best_count}", decision
    chosen = core.Decision(rule=core.RuleRef(rule_id, outcome), outcome=outcome)
    truth = [i for i, agent in enumerate(g.agents) if core.accepts(agent, chosen, g)]
    if accepted_by != truth or len(truth) != count:
        return "accepted_by differs from core.accepts", decision
    if out.get("n") != g.n:
        return f"n {out.get('n')} != {g.n}", decision
    return None, decision


def check_amend(text, obj, one_step):
    """Return a problem or None for one ``amend`` output."""
    n, sq = obj["n"], obj["status_quo_t"]
    h = amendment.h_threshold(tuple(obj["peaks_t"]), n)
    try:
        out = json.loads(text)
        if one_step:
            if out["stable"]["t"] != h:
                return f"stable {out['stable']['t']} != h_threshold {h}"
            if sq < h:
                ok = out["amended"] and out["outcome"]["t"] == h
                ok = ok and out["universal"] and len(out["accepted_by"]) == n
            else:
                ok = not out["amended"] and out["outcome"]["t"] == sq
            return None if ok else f"one-step result wrong (h={h}, status quo={sq})"
        final = out["final"]["outcome"]["t"]
        if final != (h if sq <= h else sq):
            return f"final outcome {final} != stable point (h={h}, status quo={sq})"
        steps = out["steps"]
        if not out["universal"] or any(
            not s["universal"] or len(s["accepted_by"]) != n for s in steps
        ):
            return "an iterative step is not universally accepted"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable amend output: {exc!r}"
    return None


def table_rate(class_id, n, k):
    """Worst-case acceptance rate from the paper's table, per electorate size."""
    if class_id in ("any-none", "abs-conj-consistent"):
        return Fraction(0)
    if class_id in ("abs-conj-realizable", "abs-disj-r1"):
        return Fraction(2, n)
    if class_id == "abs-disj-k":
        return Fraction(math.ceil(Fraction(n * k, n - n // 2)), n)
    if class_id == "ii-disj-last":
        return Fraction(1)
    return Fraction(math.ceil(Fraction(n, 2)), n)


def _rate(obj):
    return None if obj is None else Fraction(obj["num"], obj["den"])


def check_bounds(text, class_id, n):
    """Return a problem or None for the output of one ``bounds`` row call."""
    try:
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        seen = set()
        for row in rows:
            key = (row["class"], row["n"])
            k = BOUNDS_K if row["class"] == "abs-disj-k" else None
            observed, formula = _rate(row["observed_min_rate"]), _rate(row["formula_rate"])
            if not row["match"] or observed != formula:
                return f"row {key}: observed {observed} vs formula {formula}"
            if formula != table_rate(row["class"], row["n"], k):
                return f"row {key}: formula {formula} is not the table value"
            seen.add(key)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable bounds output: {exc!r}"
    if seen != {(class_id, n)} or len(rows) != 1:
        return f"{len(rows)} rows, expected the one row ({class_id}, n={n})"
    return None
