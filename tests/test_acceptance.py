"""Acceptance gate: the seven headline guarantees, each printed pass/fail.

Each test exercises one end-to-end guarantee at full stated scale and prints
a single summary line with its wall seconds (visible even under output
capture). Expected total runtime is under a minute on one core.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import pytest

from acceptmax.adc import (
    OUTCOMES,
    PROPOSAL,
    STATUS_QUO,
    AdcAgent,
    AdcInstance,
    adc_to_generic,
    threshold_family,
)
from acceptmax.amendment import (
    AmendmentInstance,
    VotePolicy,
    amend_iterative,
    amend_one_step,
    check_universal_acceptance,
    h_threshold,
)
from acceptmax.bounds import _options_at, shared_options, worst_case_rate
from acceptmax.core import (
    accepts,
    max_accept,
    oracle_max_accept,
)

from conftest import (
    adc_accepts,
    adc_decisions,
    cli_child_env,
    homogeneous_suite,
    majority_count,
    random_generic_instance,
    substituted,
)


@pytest.fixture
def report_line(capsys):
    """Print one criterion's PASS/FAIL line with its wall seconds, then assert."""
    started = time.perf_counter()

    def report(ok: bool, name: str, detail: str):
        seconds = time.perf_counter() - started
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {name} ({seconds:.2f} s): {detail}")
        assert ok, f"{name}: {detail}"

    return report


# ---------------------------------------------------------------------------
# 1. The tally mechanism, run on the adc instance itself as ``solve`` runs it,
#    returns the brute-force oracle's whole report (decision, accepters and
#    count) on the bridged instance, on exhaustive small suites.


def test_criterion_1_oracle_equivalence(report_line):
    checked = 0
    mismatches = 0
    for name in (
        "consequentialist",
        "absolute_disjunctivist",
        "absolute_conjunctivist",
        "ii_disjunctivist",
        "ii_conjunctivist",
    ):
        for n in (2, 3, 4):
            def options_for(votes_p, vote, listing=shared_options((name,), n), n=n):
                return _options_at(listing, n, votes_p)

            for inst in homogeneous_suite(n, options_for):
                oracle = oracle_max_accept(adc_to_generic(inst)).report
                mismatches += max_accept(inst) != oracle
                checked += 1
    report_line(
        mismatches == 0,
        "criterion 1 (mechanism = oracle)",
        f"{checked} exhaustive instances over 5 agent types, n in 2..4, "
        f"{mismatches} report mismatches",
    )


# ---------------------------------------------------------------------------
# 2. Worst-case rate table: the exact worst case found by the search equals
#    the closed form for every row at n in 3..16.

TABLE_ROWS = [
    ("any-none", None),
    ("abs-conj-consistent", None),
    ("abs-conj-realizable", None),
    ("abs-disj-r1", None),
    ("abs-disj-k", 2),
    ("abs-disj-y1", None),
    ("ii-conj-realizable", None),
    ("ii-disj-r1", None),
    ("ii-disj-y1", None),
    ("ii-disj-last", None),
]
TABLE_SIZES = range(3, 17)


def test_criterion_2_worst_case_table(report_line):
    failures = []
    checked = 0
    for class_id, k in TABLE_ROWS:
        for n in TABLE_SIZES:
            r = worst_case_rate(class_id, n, k=k)
            checked += 1
            if r.observed_min_rate != r.formula_rate:
                failures.append((class_id, n, r.observed_min_rate))
    report_line(
        not failures,
        "criterion 2 (worst-case rate table)",
        f"{checked} exact checks ({len(TABLE_ROWS)} rows, "
        f"n in {TABLE_SIZES.start}..{TABLE_SIZES.stop - 1}); failures: {failures}",
    )


# ---------------------------------------------------------------------------
# 3. Substitution to absolute disjunctivists preserves acceptance decision by
#    decision on >= 10^4 random generic instances.


def test_criterion_3_substitution_equivalence(report_line):
    counterexamples = 0
    instances = 10_000
    for seed in range(instances):
        inst = random_generic_instance(random.Random(seed))
        decisions = inst.feasible_decisions()
        for agent, sub in zip(inst.agents, substituted(inst.agents, inst)):
            if any(
                accepts(agent, d, inst) != accepts(sub, d, inst) for d in decisions
            ):
                counterexamples += 1
    report_line(
        counterexamples == 0,
        "criterion 3 (substitution equivalence)",
        f"{instances} random generic instances, {counterexamples} counterexamples",
    )


# ---------------------------------------------------------------------------
# 4. If every implementation-indifferent agent accepts at least one feasible
#    decision, the maximum is at least ceil(n / number of outcomes).


def test_criterion_4_ii_floor(report_line):
    checked = 0
    violations = 0
    for n in (2, 3, 4):
        feasible = frozenset(threshold_family(n))
        floor = math.ceil(n / len(OUTCOMES))
        listing = shared_options(("ii_disjunctivist", "ii_conjunctivist"), n)
        for votes_p in range(n + 1):
            decisions = adc_decisions(votes_p, feasible)
            options = [
                a
                for a in _options_at(listing, n, votes_p)
                if any(adc_accepts(a, t, y, votes_p) for t, y in decisions)
            ]
            bits = {
                a: tuple(int(adc_accepts(a, t, y, votes_p)) for t, y in decisions)
                for a in options
            }
            for agents in itertools.combinations_with_replacement(options, n):
                best = max(
                    sum(bits[a][j] for a in agents) for j in range(len(decisions))
                )
                checked += 1
                if best < floor:
                    violations += 1
    report_line(
        violations == 0,
        "criterion 4 (per-agent feasibility floor)",
        f"{checked} all-implementation-indifferent instances, floor ceil(n/2), "
        f"{violations} violations",
    )


# ---------------------------------------------------------------------------
# 5. Amendment guarantees over every peak vector, status quo, and vote policy
#    for n in 2..7.


def test_criterion_5_amendment_guarantees(report_line):
    runs = 0
    failures = 0
    for n in range(2, 8):
        family = list(threshold_family(n))
        for peaks in itertools.product(family, repeat=n):
            h = h_threshold(peaks, n)
            for sq in family:
                for policy in VotePolicy:
                    inst = AmendmentInstance(peaks, sq, policy)
                    trace = amend_iterative(inst)
                    one = amend_one_step(inst)
                    expected_final = h if sq <= h else sq
                    ok = (
                        check_universal_acceptance(trace, inst)
                        and trace.final_outcome == expected_final
                        and one.stable == h
                        and (sq >= h or len(one.accepted_by) == n)
                        and (sq > h or one.outcome == trace.final_outcome == h)
                    )
                    runs += 1
                    failures += not ok
    report_line(
        failures == 0,
        "criterion 5 (amendment guarantees)",
        f"{runs} runs (n in 2..7, every peak vector x status quo x 3 vote "
        f"policies): every step universally accepted, final outcome as "
        f"predicted, one-step agrees; {failures} failures",
    )


# ---------------------------------------------------------------------------
# 6. Agents whose acceptable outcomes include their own vote: fixed majority
#    rule always satisfies at least half, and exactly half is attained at
#    even n.


def test_criterion_6_majority_rule_floor(report_line):
    checked = 0
    violations = 0
    tight = {n: False for n in (2, 4)}
    for n in range(2, 6):
        feasible = frozenset(threshold_family(n))
        for votes_p in range(n + 1):
            votes = (PROPOSAL,) * votes_p + (STATUS_QUO,) * (n - votes_p)
            per_agent = [
                [
                    AdcAgent(frozenset(), frozenset({v}), False, True),
                    AdcAgent(frozenset(), frozenset(OUTCOMES), False, True),
                ]
                for v in votes
            ]
            for agents in itertools.product(*per_agent):
                inst = AdcInstance(votes, agents, feasible)
                count = majority_count(inst)
                checked += 1
                if count < math.ceil(n / 2):
                    violations += 1
                if n in tight and count == n // 2:
                    tight[n] = True
    report_line(
        violations == 0 and all(tight.values()),
        "criterion 6 (vote-consistent agents, majority rule)",
        f"{checked} exhaustive instances for n in 2..5: count >= ceil(n/2) "
        f"always ({violations} violations); exact n/2 attained at even n: {tight}",
    )


# ---------------------------------------------------------------------------
# 7. Byte-identical CLI output on repeated runs.


def run_cli_bytes(args):
    proc = subprocess.run(
        [sys.executable, "-m", "acceptmax.cli", *args],
        capture_output=True,
        check=False,
        env=cli_child_env(),
    )
    return proc.returncode, proc.stdout


def test_criterion_7_cli_determinism(report_line, tmp_path):
    adc_path = tmp_path / "adc.json"
    adc_path.write_text(
        json.dumps(
            {
                "kind": "adc",
                "n": 3,
                "votes": "ppr",
                "agents": [
                    {"type": "ii_disjunctivist", "Y": ["p"], "R_t": [2]},
                    {"type": "ii_disjunctivist", "Y": ["p"], "R_t": [3]},
                    {"type": "ii_disjunctivist", "Y": ["r"], "R_t": [3]},
                ],
                "feasible_t": [2, 3],
            }
        )
    )
    amend_path = tmp_path / "amend.json"
    amend_path.write_text(
        json.dumps(
            {
                "kind": "amendment",
                "n": 5,
                "status_quo_t": 3,
                "peaks_t": [3, 4, 4, 5, 5],
                "vote_policy": "nearer",
            }
        )
    )
    commands = [
        ["solve", str(adc_path)],
        ["solve", str(adc_path), "--mechanism", "oracle"],
        ["amend", str(amend_path)],
        ["amend", str(amend_path), "--one-step"],
        ["bounds", "abs-disj-r1", "--n", "4"],
        ["bounds", "abs-disj-k", "--n", "12", "--k", "2"],
        ["gen", "ii-conj-realizable", "--n", "5", "--seed", "9", "--count", "3"],
        ["gen", "amendment", "--n", "6", "--seed", "9", "--count", "3"],
    ]
    unstable = []
    for args in commands:
        first, second = run_cli_bytes(args), run_cli_bytes(args)
        if first != second or first[0] != 0 or not first[1]:
            unstable.append(args)
    report_line(
        not unstable,
        "criterion 7 (deterministic command line output)",
        f"{len(commands)} commands double-run byte-identical; unstable: {unstable}",
    )
