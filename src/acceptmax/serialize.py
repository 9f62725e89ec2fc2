"""JSON instance files and deterministic machine-readable reports.

All rationals are serialized as ``{"num": ..., "den": ...}`` and all
thresholds as integers ``t`` with a display fraction ``delta = (t-1)/n``,
so reports are exact and byte-stable across runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from . import adc, core

if TYPE_CHECKING:
    # Imported where it is used at run time, so that loading an adc or
    # generic instance does not load the amendment module.
    from . import amendment


class ParseError(ValueError):
    """Input file or payload cannot be turned into a valid instance."""


# Both parsers read their agents in one inline loop, with no call per agent,
# and type checks are inline ``isinstance`` tests that call these only to
# build the error: fields are read once per agent, so one more call per agent
# or field is a measurable share of parsing a large electorate. For the same
# reason an agent's location string is built only on its error path. Element
# types are checked where a pass over the elements already happens:
# ``frozenset`` builds are wrapped in ``try`` (an unhashable element raises
# TypeError), adc thresholds are type-checked with their range in
# ``AdcInstance``, and an agent's ids and outcomes must lie in universes of
# strings checked once per instance.
#
# Agent records are built with ``tuple.__new__``, which skips the argument
# binding of the NamedTuple's generated ``__new__`` and gives the same record
# of the same type. An absent list field reads as the shared ``_ABSENT``
# list, which is never mutated, so no empty list is built per agent.

_record = tuple.__new__
_ABSENT = []


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


def _set_field(obj, key, where, default):
    """An optional JSON array of scalars as a frozenset, or ``default`` when absent.

    A null field also reads as a None ``default``, and is an error otherwise.
    """
    value = obj.get(key, default)
    if value is default:
        return default
    if not isinstance(value, list):
        raise _not_list(where, **{key: value})
    try:
        return frozenset(value)
    except TypeError:
        raise _unhashable(where, **{key: value}) from None


def _int_field(obj, key, where) -> int:
    value = _field(obj, key, where)
    if type(value) is not int:
        raise ParseError(f"{where}: field {key!r} must be an integer")
    return value


def _agent_head(obj, i, *keys):
    """Agent ``i``'s type name, its ``core.AGENT_TYPES`` row and the values of ``keys``.

    The parsers read these fields directly and call this only when that read
    fails, so the location string is built only for a bad agent. The checks
    run in a fixed order: an object, a 'type' field, a known type, ``keys``.
    """
    where = f"agents[{i}]"
    if not isinstance(obj, dict):
        raise _not_object(obj, where)
    type_name = _field(obj, "type", where)
    try:
        row = core.AGENT_TYPES[type_name]
    except (KeyError, TypeError):
        raise ParseError(f"{where}: unknown agent type {type_name!r}") from None
    return type_name, row, [_field(obj, key, where) for key in keys]


def fraction_to_dict(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


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


def parse_adc(obj) -> adc.AdcInstance:
    n = _int_field(obj, "n", "adc instance")
    votes = _field(obj, "votes", "adc instance")
    if not isinstance(votes, (str, list)):
        raise ParseError("adc instance: field 'votes' must be a string or a list")
    if len(votes) != n:
        raise ParseError(f"adc instance: expected {n} votes, got {len(votes)}")
    agents = []
    for i, a in enumerate(_list_field(obj, "agents", "adc instance")):
        try:
            type_name = a["type"]
            conj, ii, names_rules, names_outcomes = core.AGENT_TYPES[type_name]
            outcomes = a["Y"]
        except (KeyError, TypeError):
            type_name, (conj, ii, names_rules, names_outcomes), (outcomes,) = _agent_head(a, i, "Y")
        r_t, r_delta = a.get("R_t", _ABSENT), a.get("R_delta", _ABSENT)
        if not (isinstance(outcomes, list) and isinstance(r_t, list) and isinstance(r_delta, list)):
            raise _not_list(f"agents[{i}]", Y=outcomes, R_t=r_t, R_delta=r_delta)
        try:
            outcomes, thresholds = frozenset(outcomes), frozenset(r_t)
        except TypeError:
            raise _unhashable(f"agents[{i}]", Y=outcomes, R_t=r_t) from None
        if len(thresholds) < len(r_t) and not all(type(t) is int for t in r_t):
            # An int absorbed an equal float or bool, which AdcInstance would reject alone.
            raise ParseError(f"adc instance: agent {i} thresholds must be integers in [1, {n}]")
        if r_delta:
            where = f"agents[{i}]"
            try:
                thresholds |= {adc.threshold_of(fraction_from_obj(d, where), n) for d in r_delta}
            except core.ValidationError as exc:
                raise ParseError(f"{where}: {exc}") from None
        if thresholds and not names_rules:
            raise ParseError(f"agents[{i}]: type {type_name!r} must have no rule set")
        if outcomes and not names_outcomes:
            raise ParseError(f"agents[{i}]: type {type_name!r} must have no outcome set")
        agents.append(_record(adc.AdcAgent, (thresholds, outcomes, conj, ii)))
    feasible = _set_field(obj, "feasible_t", "adc instance", None)
    if feasible is not None and len(feasible) < len(obj["feasible_t"]):
        # An int absorbs an equal float or bool: AdcInstance checks each listed element.
        feasible = obj["feasible_t"]
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
    agents = []
    for i, a in enumerate(_list_field(obj, "agents", "generic instance")):
        try:
            type_name = a["type"]
            conj, ii, names_rules, names_outcomes = core.AGENT_TYPES[type_name]
        except (KeyError, TypeError):
            type_name, (conj, ii, names_rules, names_outcomes), _ = _agent_head(a, i)
        rule_ids, outcomes = a.get("R", _ABSENT), a.get("Y", _ABSENT)
        if not (isinstance(rule_ids, list) and isinstance(outcomes, list)):
            raise _not_list(f"agents[{i}]", R=rule_ids, Y=outcomes)
        try:
            rule_ids, outcomes = frozenset(rule_ids), frozenset(outcomes)
        except TypeError:
            raise _unhashable(f"agents[{i}]", R=rule_ids, Y=outcomes) from None
        if rule_ids and not names_rules:
            raise ParseError(f"agents[{i}]: type {type_name!r} must have no rule set")
        if outcomes and not names_outcomes:
            raise ParseError(f"agents[{i}]: type {type_name!r} must have no outcome set")
        agents.append(_record(core.SatisfyingSpec, (rule_ids, outcomes, conj, ii)))
    outcomes = _list_field(obj, "outcomes", "generic instance")
    if not all(type(y) is str for y in outcomes):
        raise ParseError("generic instance: field 'outcomes' must list strings")
    # Absent: every outcome, every rule.
    all_outcomes, all_rules = frozenset(outcomes), frozenset(r.id for r in rules)
    feasible_outcomes = _set_field(obj, "feasible_outcomes", "generic instance", all_outcomes)
    feasible_rules = _set_field(obj, "feasible_rules", "generic instance", all_rules)
    try:
        return core.GenericInstance(
            outcomes=outcomes,
            rules=rules,
            feasible_outcomes=feasible_outcomes,
            feasible_rule_ids=feasible_rules,
            agents=agents,
        )
    except core.ValidationError as exc:
        raise ParseError(f"generic instance: {exc}") from exc


def parse_amendment(obj) -> amendment.AmendmentInstance:
    from . import amendment

    n = _int_field(obj, "n", "amendment instance")
    peaks = _list_field(obj, "peaks_t", "amendment instance")
    if len(peaks) != n:
        raise ParseError(f"amendment instance: expected {n} peaks, got {len(peaks)}")
    if not all(type(p) is int for p in peaks):
        raise ParseError("amendment instance: field 'peaks_t' must list integers")
    status_quo = _int_field(obj, "status_quo_t", "amendment instance")
    try:
        return amendment.AmendmentInstance(
            peaks=peaks,
            status_quo=status_quo,
            vote_policy=obj.get("vote_policy", amendment.VotePolicy.NEARER),
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


def adc_instance_to_dict(instance: adc.AdcInstance) -> dict:
    return {
        "kind": "adc",
        "n": instance.n,
        "votes": "".join(instance.votes),
        "feasible_t": sorted(instance.feasible_thresholds),
        "agents": [
            {
                "type": core.agent_type_name(a),
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


def solve_report_to_dict(report: core.SolveReport, instance) -> dict:
    """The report on the loaded ``instance``: an adc decision also names its threshold."""
    decision = {"rule": report.decision.rule.id, "outcome": report.decision.outcome}
    if isinstance(instance, adc.AdcInstance):
        t = adc.rule_threshold(report.decision.rule.id)
        decision.update(_threshold_fields(t, instance.n))
    return {
        "decision": decision,
        "accepted_by": sorted(report.accepted_by),
        "count": report.acceptance_count,
        "n": instance.n,
        "rate": fraction_to_dict(Fraction(report.acceptance_count, instance.n)),
    }


def oracle_result_to_dict(result: core.OracleResult, instance) -> dict:
    """As ``solve_report_to_dict``, plus the oracle's whole tally."""
    out = solve_report_to_dict(result.report, instance)
    out["tally"] = [
        {"rule": d.rule.id, "outcome": d.outcome, "count": count}
        for d, count in result.tally
    ]
    return out


def trace_to_dict(trace: amendment.AmendmentTrace, instance) -> dict:
    """The trace's steps, final decision, and whether every step was accepted by all."""
    n = instance.n
    steps = [
        {
            "status_quo": _threshold_fields(s.status_quo, n),
            "proposal": _threshold_fields(s.proposal, n),
            "votes": "".join(s.votes),
            "outcome": _threshold_fields(s.outcome, n),
            "accepted_by": sorted(s.accepted_by),
            "universal": len(s.accepted_by) == n,
        }
        for s in trace.steps
    ]
    return {
        "steps": steps,
        "final": {
            "rule": _threshold_fields(trace.final_rule, n),
            "outcome": _threshold_fields(trace.final_outcome, n),
        },
        "universal": all(step["universal"] for step in steps),
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
    observed = report.observed_min_rate
    return {
        "class": report.class_id,
        "n": report.n,
        "k": report.k,
        "observed_min_rate": None if observed is None else fraction_to_dict(observed),
        "formula_rate": fraction_to_dict(report.formula_rate),
        "witness": None if report.witness is None else adc_instance_to_dict(report.witness),
        "match": report.match,
        "options": report.options,
        "kept": report.kept,
        "nodes": report.nodes,
    }


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace drift, no timestamps."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
