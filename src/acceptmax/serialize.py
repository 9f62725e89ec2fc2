"""JSON instance files and deterministic machine-readable reports.

All rationals are serialized as ``{"num": ..., "den": ...}`` and all
thresholds as integers ``t`` with a display fraction ``delta = (t-1)/n``,
so reports are exact and byte-stable across runs.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import adc, amendment, core


class ParseError(ValueError):
    """Input file or payload cannot be turned into a valid instance."""


AGENT_TYPES = {
    # name -> (conjunctive, implementation_indifferent)
    "consequentialist": (False, True),
    "absolute_proceduralist": (False, False),
    "ii_proceduralist": (False, True),
    "absolute_disjunctivist": (False, False),
    "absolute_conjunctivist": (True, False),
    "ii_disjunctivist": (False, True),
    "ii_conjunctivist": (True, True),
}

_EMPTY_RULES = ("consequentialist",)
_EMPTY_OUTCOMES = ("absolute_proceduralist", "ii_proceduralist")


# Type checks are inline ``isinstance`` tests that call these only to build
# the error: fields are read once per agent, so one more call per field is a
# measurable share of parsing a large electorate. For the same reason an
# agent's location string is built only on its error path. Element types are
# checked where a pass over the elements already happens: ``frozenset``
# builds are wrapped in ``try`` (an unhashable element raises TypeError), adc
# thresholds are type-checked with their range in ``AdcInstance``, and an
# agent's ids and outcomes must lie in universes of strings checked once per
# instance.


def _not_object(obj, where) -> ParseError:
    return ParseError(f"{where}: expected an object, got {type(obj).__name__}")


def _not_list(where, **fields) -> ParseError:
    """The error for the first of ``fields`` that is not a JSON array (a string is not one)."""
    key = next(k for k, v in fields.items() if not isinstance(v, list))
    return ParseError(f"{where}: field {key!r} must be a list")


def _field(obj, key, where):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _unhashable(where, **fields) -> ParseError:
    """The error for the first of ``fields`` holding an array or object element."""
    for key, values in fields.items():
        for value in values:
            if isinstance(value, (list, dict)):
                return ParseError(f"{where}: field {key!r} holds a {type(value).__name__}")
    return ParseError(f"{where}: fields {', '.join(map(repr, fields))} must list scalars")


def _list_field(obj, key, where):
    value = _field(obj, key, where)
    if not isinstance(value, list):
        raise _not_list(where, **{key: value})
    return value


def _int_field(obj, key, where) -> int:
    value = _field(obj, key, where)
    if type(value) is not int:
        raise ParseError(f"{where}: field {key!r} must be an integer")
    return value


def _agent_head(obj, i, *keys):
    """Agent ``i``'s type name, its flags and the values of ``keys``, each failure located.

    The parsers read these fields directly and call this only when that read
    fails, so the location string is built only for a bad agent. The checks
    run in a fixed order: an object, a 'type' field, a known type, ``keys``.
    """
    where = f"agents[{i}]"
    if not isinstance(obj, dict):
        raise _not_object(obj, where)
    type_name = _field(obj, "type", where)
    try:
        flags = AGENT_TYPES[type_name]
    except (KeyError, TypeError):
        raise ParseError(f"{where}: unknown agent type {type_name!r}") from None
    return type_name, flags, [_field(obj, key, where) for key in keys]


def fraction_to_dict(value: Fraction) -> dict:
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator}


def fraction_from_obj(obj, where) -> Fraction:
    """An exact rational: ``{"num": int, "den": int}`` with den != 0, an int, or a string.

    A string is ``a/b`` or a plain decimal; one with an exponent is rejected.
    """
    if isinstance(obj, dict):
        num, den = _field(obj, "num", where), _field(obj, "den", where)
        if type(num) is int and type(den) is int and den != 0:
            return Fraction(num, den)
        raise ParseError(f"{where}: a rational needs integer num and nonzero integer den")
    if type(obj) is int:
        return Fraction(obj)
    if type(obj) is str:
        # Fraction writes a decimal exponent out in full: "1e-999999999" would hang.
        if "e" not in obj and "E" not in obj:
            try:
                return Fraction(obj)
            except (ValueError, ZeroDivisionError):
                pass
        raise ParseError(f"{where}: {obj!r} is not a rational")
    raise ParseError(f"{where}: expected a rational")


def _parse_adc_agent(obj, i, n):
    try:
        type_name = obj["type"]
        conj, ii = AGENT_TYPES[type_name]
        outcomes = obj["Y"]
    except (KeyError, TypeError):
        type_name, (conj, ii), (outcomes,) = _agent_head(obj, i, "Y")
    r_t, r_delta = obj.get("R_t", []), obj.get("R_delta", [])
    if not (isinstance(outcomes, list) and isinstance(r_t, list) and isinstance(r_delta, list)):
        raise _not_list(f"agents[{i}]", Y=outcomes, R_t=r_t, R_delta=r_delta)
    try:
        outcomes, thresholds = frozenset(outcomes), frozenset(r_t)
    except TypeError:
        raise _unhashable(f"agents[{i}]", Y=outcomes, R_t=r_t) from None
    if r_delta:
        where = f"agents[{i}]"
        thresholds |= {adc.threshold_of(fraction_from_obj(d, where), n) for d in r_delta}
    if type_name in _EMPTY_RULES and thresholds:
        raise ParseError(f"agents[{i}]: type {type_name!r} must have no rule set")
    if type_name in _EMPTY_OUTCOMES and outcomes:
        raise ParseError(f"agents[{i}]: type {type_name!r} must have no outcome set")
    return adc.AdcAgent(thresholds, outcomes, conj, ii)


def parse_adc(obj) -> adc.AdcInstance:
    n = _int_field(obj, "n", "adc instance")
    votes = _field(obj, "votes", "adc instance")
    if not isinstance(votes, (str, list)):
        raise ParseError("adc instance: field 'votes' must be a string or a list")
    votes = tuple(votes)
    if len(votes) != n:
        raise ParseError(f"adc instance: expected {n} votes, got {len(votes)}")
    agents = tuple(
        _parse_adc_agent(a, i, n)
        for i, a in enumerate(_list_field(obj, "agents", "adc instance"))
    )
    feasible = obj.get("feasible_t")
    if not (feasible is None or isinstance(feasible, list)):
        raise _not_list("adc instance", feasible_t=feasible)
    try:
        feasible = frozenset(feasible) if feasible is not None else None
    except TypeError:
        raise _unhashable("adc instance", feasible_t=feasible) from None
    try:
        return adc.AdcInstance(votes=votes, agents=agents, feasible_thresholds=feasible)
    except core.ValidationError as exc:
        raise ParseError(f"adc instance: {exc}") from exc


def parse_generic(obj) -> core.GenericInstance:
    rules = []
    for i, r in enumerate(_list_field(obj, "rules", "generic instance")):
        where = f"rules[{i}]"
        if not isinstance(r, dict):
            raise _not_object(r, where)
        rule_id, value = _field(r, "id", where), _field(r, "value", where)
        if type(rule_id) is not str or type(value) is not str:
            raise ParseError(f"{where}: fields 'id' and 'value' must be strings")
        rules.append(core.RuleRef(rule_id, value))
    rules = tuple(rules)
    agents = []
    for i, a in enumerate(_list_field(obj, "agents", "generic instance")):
        try:
            type_name = a["type"]
            conj, ii = AGENT_TYPES[type_name]
        except (KeyError, TypeError):
            type_name, (conj, ii), _ = _agent_head(a, i)
        rule_ids, outcomes = a.get("R", []), a.get("Y", [])
        if not (isinstance(rule_ids, list) and isinstance(outcomes, list)):
            raise _not_list(f"agents[{i}]", R=rule_ids, Y=outcomes)
        try:
            rule_ids, outcomes = frozenset(rule_ids), frozenset(outcomes)
        except TypeError:
            raise _unhashable(f"agents[{i}]", R=rule_ids, Y=outcomes) from None
        if type_name in _EMPTY_RULES and rule_ids:
            raise ParseError(f"agents[{i}]: type {type_name!r} must have no rule set")
        if type_name in _EMPTY_OUTCOMES and outcomes:
            raise ParseError(f"agents[{i}]: type {type_name!r} must have no outcome set")
        agents.append(core.SatisfyingSpec(rule_ids, outcomes, conj, ii))
    outcomes = _list_field(obj, "outcomes", "generic instance")
    if not all(type(y) is str for y in outcomes):
        raise ParseError("generic instance: field 'outcomes' must list strings")
    feasible_outcomes = obj.get("feasible_outcomes", outcomes)
    feasible_rules = obj.get("feasible_rules", [r.id for r in rules])
    if not (isinstance(feasible_outcomes, list) and isinstance(feasible_rules, list)):
        raise _not_list(
            "generic instance",
            feasible_outcomes=feasible_outcomes,
            feasible_rules=feasible_rules,
        )
    try:
        feasible_outcomes = frozenset(feasible_outcomes)
        feasible_rules = frozenset(feasible_rules)
    except TypeError:
        raise _unhashable(
            "generic instance",
            feasible_outcomes=feasible_outcomes,
            feasible_rules=feasible_rules,
        ) from None
    try:
        return core.GenericInstance(
            outcomes=tuple(outcomes),
            rules=rules,
            feasible_outcomes=feasible_outcomes,
            feasible_rule_ids=feasible_rules,
            agents=tuple(agents),
        )
    except core.ValidationError as exc:
        raise ParseError(f"generic instance: {exc}") from exc


def parse_amendment(obj) -> amendment.AmendmentInstance:
    n = _int_field(obj, "n", "amendment instance")
    peaks = tuple(_list_field(obj, "peaks_t", "amendment instance"))
    if len(peaks) != n:
        raise ParseError(f"amendment instance: expected {n} peaks, got {len(peaks)}")
    if not all(type(p) is int for p in peaks):
        raise ParseError("amendment instance: field 'peaks_t' must list integers")
    status_quo = _int_field(obj, "status_quo_t", "amendment instance")
    try:
        return amendment.AmendmentInstance(
            peaks=peaks,
            status_quo=status_quo,
            vote_policy=amendment.VotePolicy(obj.get("vote_policy", "nearer")),
        )
    except (core.ValidationError, ValueError) as exc:
        raise ParseError(f"amendment instance: {exc}") from exc


def parse_instance(obj):
    if not isinstance(obj, dict):
        raise _not_object(obj, "instance")
    kind = _field(obj, "kind", "instance")
    if kind == "adc":
        return parse_adc(obj)
    if kind == "generic":
        return parse_generic(obj)
    if kind == "amendment":
        return parse_amendment(obj)
    raise ParseError(f"instance: unknown kind {kind!r}")


def load_instance(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, an integer past the digit limit, or nesting past the recursion limit.
        raise ParseError(f"{path}: {exc}") from exc
    return parse_instance(obj)


# ---------------------------------------------------------------------------
# Serialization back to JSON payloads.


def _agent_type_name(conjunctive, implementation_indifferent, has_rules, has_outcomes):
    if not conjunctive and not has_rules:
        return "consequentialist"
    if not conjunctive and not has_outcomes:
        return "ii_proceduralist" if implementation_indifferent else "absolute_proceduralist"
    stem = "conjunctivist" if conjunctive else "disjunctivist"
    return ("ii_" if implementation_indifferent else "absolute_") + stem


def adc_instance_to_dict(instance: adc.AdcInstance) -> dict:
    return {
        "kind": "adc",
        "n": instance.n,
        "votes": "".join(instance.votes),
        "feasible_t": sorted(instance.feasible_thresholds),
        "agents": [
            {
                "type": _agent_type_name(
                    a.conjunctive,
                    a.implementation_indifferent,
                    bool(a.thresholds),
                    bool(a.outcomes),
                ),
                "Y": sorted(a.outcomes),
                "R_t": sorted(a.thresholds),
            }
            for a in instance.agents
        ],
    }


def amendment_instance_to_dict(instance: amendment.AmendmentInstance) -> dict:
    return {
        "kind": "amendment",
        "n": instance.n,
        "status_quo_t": instance.status_quo,
        "peaks_t": list(instance.peaks),
        "vote_policy": instance.vote_policy.value,
    }


def _threshold_fields(t: int, n: int) -> dict:
    return {"t": t, "delta": fraction_to_dict(adc.delta_of(t, n))}


def solve_report_to_dict(report: core.SolveReport, n: int, adc_n: int | None = None) -> dict:
    decision = {"rule": report.decision.rule.id, "outcome": report.decision.outcome}
    if adc_n is not None:
        t = adc.rule_threshold(report.decision.rule.id)
        decision.update(_threshold_fields(t, adc_n))
    return {
        "decision": decision,
        "accepted_by": sorted(report.accepted_by),
        "count": report.acceptance_count,
        "n": n,
        "rate": fraction_to_dict(report.acceptance_rate),
    }


def oracle_result_to_dict(result: core.OracleResult, n: int, adc_n=None) -> dict:
    out = solve_report_to_dict(result.report, n, adc_n)
    out["tally"] = [
        {"rule": d.rule.id, "outcome": d.outcome, "count": count}
        for d, count in result.tally
    ]
    return out


def trace_to_dict(trace: amendment.AmendmentTrace, instance) -> dict:
    n = instance.n
    return {
        "steps": [
            {
                "status_quo": _threshold_fields(s.status_quo, n),
                "proposal": _threshold_fields(s.proposal, n),
                "votes": "".join(s.votes),
                "outcome": _threshold_fields(s.outcome, n),
                "accepted_by": sorted(s.accepted_by),
                "universal": len(s.accepted_by) == n,
            }
            for s in trace.steps
        ],
        "final": {
            "rule": _threshold_fields(trace.final_rule, n),
            "outcome": _threshold_fields(trace.final_outcome, n),
        },
        "universal": amendment.check_universal_acceptance(trace, instance),
        "n": n,
    }


def one_step_to_dict(report, instance) -> dict:
    n = instance.n
    out = {
        "stable": _threshold_fields(report.stable, n),
        "rule": _threshold_fields(report.rule, n),
        "outcome": _threshold_fields(report.outcome, n),
        "amended": report.votes is not None,
        "n": n,
    }
    if report.votes is not None:
        out["votes"] = "".join(report.votes)
        out["accepted_by"] = sorted(report.accepted_by)
        out["universal"] = len(report.accepted_by) == n
    return out


def bounds_report_to_dict(report) -> dict:
    def rate(f):
        return None if f is None else fraction_to_dict(f)

    return {
        "class": report.class_id,
        "n": report.n,
        "k": report.k,
        "observed_min_rate": rate(report.observed_min_rate),
        "formula_rate": rate(report.formula_rate),
        "witness": None if report.witness is None else adc_instance_to_dict(report.witness),
        "match": report.match,
        "options": report.options,
        "kept": report.kept,
        "nodes": report.nodes,
    }


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace drift, no timestamps."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
