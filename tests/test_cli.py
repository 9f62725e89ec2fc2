"""Command line interface: schemas, exit codes, deterministic output."""

import contextlib
import copy
import gc
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from acceptmax import adc, bounds, cli, core, serialize
from acceptmax.adc import AdcInstance, adc_to_generic
from acceptmax.amendment import AmendmentInstance, VotePolicy
from acceptmax.core import max_accept

from conftest import cli_child_env, random_adc_instance, random_generic_instance

ADC_CONSEQ = {
    "kind": "adc",
    "n": 3,
    "votes": "ppr",
    "agents": [
        {"type": "consequentialist", "Y": ["p"], "R_t": []},
        {"type": "consequentialist", "Y": ["p"], "R_t": []},
        {"type": "consequentialist", "Y": ["r"], "R_t": []},
    ],
    "feasible_t": [2, 3],
}

ADC_II_DISJ = {
    "kind": "adc",
    "n": 3,
    "votes": "ppr",
    "agents": [
        {"type": "ii_disjunctivist", "Y": ["p"], "R_t": [2]},
        {"type": "ii_disjunctivist", "Y": ["p"], "R_delta": [{"num": 2, "den": 3}]},
        {"type": "ii_disjunctivist", "Y": ["r"], "R_t": [3]},
    ],
    "feasible_t": [2, 3],
}

ADC_T9_T10_TIE = {
    "kind": "adc",
    "n": 10,
    "votes": "pppppprrrr",
    "agents": [
        {"type": "absolute_proceduralist", "Y": [], "R_t": [9 if i < 5 else 10]}
        for i in range(10)
    ],
}

AMENDMENT = {
    "kind": "amendment",
    "n": 5,
    "status_quo_t": 3,
    "peaks_t": [3, 4, 4, 5, 5],
    "vote_policy": "nearer",
}

GENERIC = {
    "kind": "generic",
    "outcomes": ["A", "B"],
    "rules": [{"id": "r1", "value": "A"}, {"id": "r2", "value": "B"}],
    "feasible_outcomes": ["A", "B"],
    "feasible_rules": ["r1", "r2"],
    "agents": [
        {"type": "absolute_disjunctivist", "R": ["r1"], "Y": []},
        {"type": "consequentialist", "R": [], "Y": ["A"]},
    ],
}


@pytest.fixture
def write_json(tmp_path):
    def _write(payload, name="instance.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_auto_on_consequentialists(self, capsys, write_json):
        path = write_json(ADC_CONSEQ)
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"]["rule"] == "t2"
        assert payload["decision"]["outcome"] == "p"
        assert payload["decision"]["t"] == 2
        assert payload["count"] == 2
        assert payload["rate"] == {"num": 2, "den": 3}

    def test_oracle_selector_agrees_and_reports_tally(self, capsys, write_json):
        path = write_json(ADC_CONSEQ)
        code, out, _ = run_cli(capsys, "solve", path, "--mechanism", "oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert {(e["rule"], e["count"]) for e in payload["tally"]} == {
            ("t2", 2),
            ("t3", 1),
        }

    def test_auto_and_oracle_agree_on_ties(self, capsys, write_json):
        cases = [
            # ii-disjunctivists: r and p tie at 2; the status quo comes first.
            (ADC_II_DISJ, {"rule": "t3", "outcome": "r"}),
            # t9 and t10 both keep the status quo and tie at 5: numeric order.
            (ADC_T9_T10_TIE, {"rule": "t9", "outcome": "r"}),
        ]
        for payload, decision in cases:
            path = write_json(payload)
            outputs = []
            for argv in (["solve", path], ["solve", path, "--mechanism", "oracle"]):
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                outputs.append(json.loads(out))
            auto, oracle = outputs
            for key in ("decision", "accepted_by", "count"):
                assert auto[key] == oracle[key]
            assert {k: auto["decision"][k] for k in decision} == decision

    def test_generic_instance(self, capsys, write_json):
        path = write_json(GENERIC)
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["decision"] == {"rule": "r1", "outcome": "A"}

    def test_generic_vote_key_is_ignored(self, capsys, write_json):
        plain = run_cli(capsys, "solve", write_json(GENERIC))
        voted = _with_agent(GENERIC, 1, vote=["A"])
        assert run_cli(capsys, "solve", write_json(voted, "voted.json")) == plain
        assert plain[0] == 0

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2 and "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent.json")
        assert code == 2 and "error:" in err

    def test_amendment_file_rejected_by_solve(self, capsys, write_json):
        path = write_json(AMENDMENT)
        code, _, _ = run_cli(capsys, "solve", path)
        assert code == 2

    def test_adc_file_rejected_by_amend(self, capsys, write_json):
        code, out, err = run_cli(capsys, "amend", write_json(ADC_II_DISJ))
        assert (code, out, err) == (2, "", "error: amend expects an amendment instance\n")

    def test_non_object_agent_exits_2(self, capsys, write_json):
        path = write_json({**ADC_CONSEQ, "agents": [1, 2, 3]})
        code, _, err = run_cli(capsys, "solve", path)
        assert code == 2 and "agents[0]: expected an object" in err

    def test_string_in_place_of_list_exits_2(self, capsys, write_json):
        agents = [dict(a) for a in ADC_CONSEQ["agents"]]
        agents[0]["Y"] = "p"
        path = write_json({**ADC_CONSEQ, "agents": agents})
        code, _, err = run_cli(capsys, "solve", path)
        assert code == 2 and "'Y' must be a list" in err

    @pytest.mark.parametrize("delta", ["2/3", "0.6667"])
    def test_string_r_delta_solves_like_rational(self, capsys, write_json, delta):
        # Both strings give threshold floor(d * 3) + 1 = 3, as {"num": 2, "den": 3} does.
        expected = run_cli(capsys, "solve", write_json(ADC_II_DISJ))
        path = write_json(_with_agent(ADC_II_DISJ, 1, R_delta=[delta]), "string.json")
        assert run_cli(capsys, "solve", path) == expected


@pytest.fixture
def gc_restored():
    """Put the collector back as the test found it, whatever the test did."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestGcPause:
    """``solve`` pauses the cyclic collector; it must leave no cycles and the caller's setting."""

    @pytest.mark.parametrize("payload", [ADC_II_DISJ, GENERIC], ids=["adc", "generic"])
    def test_solve_leaves_no_cycles(self, capsys, write_json, gc_restored, payload):
        path = write_json(payload)
        run_cli(capsys, "solve", path)  # warm-up: first-call caches may hold cycles
        gc.collect()
        code, _, _ = run_cli(capsys, "solve", path)
        assert code == 0
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "payload, expected_code",
        [(ADC_II_DISJ, 0), (GENERIC, 0), ({**ADC_II_DISJ, "n": "3"}, 2)],
        ids=["adc", "generic", "parse-error"],
    )
    def test_caller_setting_is_restored(
        self, capsys, write_json, gc_restored, enabled, payload, expected_code
    ):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        code, _, _ = run_cli(capsys, "solve", write_json(payload))
        assert code == expected_code
        assert gc.isenabled() is enabled


class TestSolveBridge:
    """``solve`` decides an adc instance as it is, with either mechanism.

    The bridge ``adc.adc_to_generic`` serves only cross-checks: the
    benchmark's solve check, acceptance criterion 1 and the tests.
    """

    @pytest.mark.parametrize("mechanism", ["auto", "oracle"])
    @pytest.mark.parametrize("payload", [ADC_CONSEQ, ADC_II_DISJ, ADC_T9_T10_TIE])
    def test_solve_does_not_bridge(self, capsys, write_json, monkeypatch, payload, mechanism):
        argv = ("solve", write_json(payload), "--mechanism", mechanism)
        expected = run_cli(capsys, *argv)

        def refuse(instance):
            raise AssertionError(f"solve --mechanism {mechanism} bridged its instance")

        monkeypatch.setattr(adc, "adc_to_generic", refuse)
        assert run_cli(capsys, *argv) == expected
        assert expected[0] == 0


class TestAmend:
    def test_iterative(self, capsys, write_json):
        path = write_json(AMENDMENT)
        code, out, _ = run_cli(capsys, "amend", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["final"]["outcome"]["t"] == 4
        assert payload["universal"] is True
        assert len(payload["steps"]) == 2

    def test_one_step(self, capsys, write_json):
        path = write_json(AMENDMENT)
        code, out, _ = run_cli(capsys, "amend", path, "--one-step")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["t"] == 4
        assert payload["amended"] is True
        assert payload["accepted_by"] == [0, 1, 2, 3, 4]

    def test_status_quo_at_top_is_trivial(self, capsys, write_json):
        payload = dict(AMENDMENT, status_quo_t=5, peaks_t=[5, 5, 5, 5, 5])
        path = write_json(payload)
        code, out, _ = run_cli(capsys, "amend", path)
        assert code == 0
        assert json.loads(out)["steps"] == []


class TestBounds:
    def test_match_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "--threads", "1", "bounds", "abs-disj-k", "--n", "4", "--k", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        assert payload["observed_min_rate"] == {"num": 1, "den": 2}

    def test_any_none_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--threads", "1", "bounds", "any-none", "--n", "3")
        assert code == 0
        assert json.loads(out)["formula_rate"] == {"num": 0, "den": 1}

    def test_ii_disj_last_is_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "--threads", "1", "bounds", "ii-disj-last", "--n", "3"
        )
        assert code == 0
        assert json.loads(out)["observed_min_rate"] == {"num": 1, "den": 1}

    def test_unknown_class_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "no-such-row", "--n", "3")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("k", [[], ["--k", "0"], ["--k", "3"]], ids=["none", "0", "3"])
    def test_bad_k_exits_2_before_any_row(self, capsys, k):
        # Every (class, n) is checked before the first row is printed.
        code, out, err = run_cli(capsys, "bounds", "all", "--n", "3", "--n", "6", *k)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "extra", [["--mode", "randomized"], ["--samples", "10"], ["--seed", "1"]]
    )
    def test_random_search_options_exit_2(self, capsys, extra):
        # The search is exact at every size; random search and its options are gone.
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "abs-disj-r1", "--n", "6", *extra])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestGen:
    def test_seeded_output_is_deterministic(self, capsys):
        runs = [
            run_cli(capsys, "gen", "ii-disj-r1", "--n", "4", "--seed", "7", "--count", "3")
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_generated_instances_validate_and_solve(self, capsys):
        for class_id in sorted(bounds.CLASSES):
            k = ["--k", "1"] if bounds.CLASSES[class_id].needs_k else []
            code, out, _ = run_cli(
                capsys, "gen", class_id, "--n", "5", "--seed", "3", "--count", "2", *k
            )
            assert code == 0
            for line in out.splitlines():
                inst = serialize.parse_instance(json.loads(line))
                assert isinstance(inst, AdcInstance)
                assert max_accept(adc_to_generic(inst)).acceptance_count >= 0

    def test_generated_amendment_instances(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "amendment", "--n", "5", "--count", "2")
        assert code == 0
        for line in out.splitlines():
            inst = serialize.parse_instance(json.loads(line))
            assert isinstance(inst, AmendmentInstance)

    def test_consistent_class_respects_votes(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "conseq-consistent", "--n", "6", "--seed", "1", "--count", "5"
        )
        assert code == 0
        for line in out.splitlines():
            inst = serialize.parse_instance(json.loads(line))
            for agent, vote in zip(inst.agents, inst.votes):
                assert vote in agent.outcomes

    def test_unknown_class_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "no-such-class", "--n", "3")
        assert code == 2

    def test_class_empty_at_n_exits_2(self, capsys):
        # No ii-disj-last agent exists at n = 2, whatever the votes.
        code, out, err = run_cli(capsys, "gen", "ii-disj-last", "--n", "2")
        assert (code, out) == (2, "")
        assert err == "error: class 'ii-disj-last' unsatisfiable for n=2\n"

    def test_class_empty_at_any_size_exits_2_before_any_instance(self, capsys):
        code, out, err = run_cli(
            capsys, "gen", "ii-disj-last", "--n", "3", "--n", "2", "--count", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: class 'ii-disj-last' unsatisfiable for n=2\n"

    def test_electorate_below_two_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "amendment", "--n", "0"])
        assert exc.value.code == 2
        assert "at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [[], ["--k", "0"], ["--k", "-1"], ["--k", "3"]])
    def test_missing_or_out_of_range_k_exits_2(self, capsys, k):
        code, out, err = run_cli(capsys, "gen", "abs-disj-k", "--n", "4", *k)
        assert (code, out) == (2, "") and err.startswith("error:")

    def test_negative_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "amendment", "--count", "-1"])
        assert exc.value.code == 2
        assert "instance count must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("class_id", ["any-none", "amendment"])
    def test_count_instances_per_size_in_order(self, capsys, class_id):
        code, out, _ = run_cli(
            capsys, "gen", class_id, "--n", "3", "--n", "5", "--n", "3", "--count", "2"
        )
        assert code == 0
        assert [json.loads(line)["n"] for line in out.splitlines()] == [3, 3, 5, 5, 3, 3]

    def test_bad_k_for_any_size_exits_2_before_any_instance(self, capsys):
        code, out, err = run_cli(
            capsys, "gen", "abs-disj-k", "--n", "5", "--n", "2", "--k", "2"
        )
        assert (code, out) == (2, "") and err.startswith("error:")

    def test_zero_count_prints_nothing(self, capsys):
        assert run_cli(capsys, "gen", "amendment", "--count", "0") == (0, "", "")

    def test_stdout_digest_is_stable(self, capsys):
        # One digest over (argv, exit code, stdout) of `gen` for every class
        # and for amendment: `gen` samples from the full option listing, so a
        # change in that listing or its order changes the instances printed.
        digest = hashlib.sha256()
        for class_id in sorted(bounds.CLASSES) + ["amendment"]:
            argv = ["gen", class_id, "--n", "5", "--n", "8", "--count", "3",
                    "--seed", "11", "--k", "2"]
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            digest.update(json.dumps([argv, code, out]).encode() + b"\n")
        assert digest.hexdigest() == (
            "5cb3d628827eab888e20195bcfcf0ed2762b305be860fd1a135ac7876d5f1c12"
        )


class TestSerializeRoundTrip:
    def test_adc_round_trip(self):
        inst = serialize.parse_instance(ADC_II_DISJ)
        again = serialize.parse_instance(serialize.adc_instance_to_dict(inst))
        assert inst == again

    def test_witnesses_and_generated_instances_read_back_equal(self):
        # A written agent is named by its flags and sets, so it reads back
        # with the same flags: a rule-less absolute agent must not come back
        # implementation-indifferent.
        instances = []
        for class_id, row in sorted(bounds.CLASSES.items()):
            k = 2 if row.needs_k else None
            instances += [bounds.worst_case_rate(class_id, n, k).witness for n in range(3, 8)]
            for n in range(2, 6):
                if bounds.has_instance(class_id, n, k):
                    instances += [
                        next(cli._gen_adc(class_id, n, random.Random(s), k, 1)) for s in range(3)
                    ]
        for inst in instances:
            assert serialize.parse_instance(serialize.adc_instance_to_dict(inst)) == inst

    @pytest.mark.parametrize("type_name", list(core.AGENT_TYPES))
    def test_type_name_survives_a_record(self, type_name):
        _, _, names_rules, names_outcomes = core.AGENT_TYPES[type_name]
        agent = {
            "type": type_name,
            "Y": ["p"] if names_outcomes else [],
            "R_t": [2] if names_rules else [],
        }
        payload = {"kind": "adc", "n": 3, "votes": "ppr", "agents": [agent] * 3}
        for record in serialize.parse_instance(payload).agents:
            assert core.agent_type_name(record) == type_name

    def test_amendment_round_trip(self):
        inst = serialize.parse_instance(AMENDMENT)
        assert inst.vote_policy is VotePolicy.NEARER
        again = serialize.parse_instance(serialize.amendment_instance_to_dict(inst))
        assert inst == again

    def test_delta_thresholds_map_to_integers(self):
        inst = serialize.parse_instance(ADC_II_DISJ)
        assert inst.agents[1].thresholds == {3}

    def test_type_constraints_enforced(self):
        bad = json.loads(json.dumps(ADC_CONSEQ))
        bad["agents"][0]["R_t"] = [2]
        with pytest.raises(serialize.ParseError):
            serialize.parse_instance(bad)

    def test_unknown_kind(self):
        with pytest.raises(serialize.ParseError):
            serialize.parse_instance({"kind": "mystery"})

    @pytest.mark.parametrize("type_name", sorted(core.AGENT_TYPES))
    def test_parsed_records_equal_constructed_ones(self, type_name):
        # The parsers build records with tuple.__new__: same type, same value.
        conj, ii, rules, outcomes = core.AGENT_TYPES[type_name]
        # 'R_t', 'R' and generic 'Y' are left out when empty: absent lists read as empty.
        agent_obj = {"type": type_name, "Y": ["p"] if outcomes else []}
        if rules:
            agent_obj["R_t"] = [2, 3]
        adc_obj = {"kind": "adc", "n": 3, "votes": "ppr", "agents": [agent_obj] * 3}
        expected = adc.AdcAgent(
            frozenset({2, 3} if rules else ()), frozenset({"p"} if outcomes else ()), conj, ii
        )
        for record in serialize.parse_instance(adc_obj).agents:
            assert type(record) is adc.AdcAgent and record == expected
        spec_obj = {"type": type_name}
        if rules:
            spec_obj["R"] = ["r2"]
        if outcomes:
            spec_obj["Y"] = ["A"]
        generic_obj = {**GENERIC, "agents": [spec_obj]}
        expected = core.SatisfyingSpec(
            frozenset({"r2"} if rules else ()), frozenset({"A"} if outcomes else ()), conj, ii
        )
        (record,) = serialize.parse_instance(generic_obj).agents
        assert type(record) is core.SatisfyingSpec and record == expected


def _generic_instance_to_dict(instance):
    """A generic instance file; each agent's type name follows from its flags and sets."""
    return {
        "kind": "generic",
        "outcomes": list(instance.outcomes),
        "rules": [{"id": r.id, "value": r.value_at_profile} for r in instance.rules],
        "feasible_outcomes": sorted(instance.feasible_outcomes),
        "feasible_rules": sorted(instance.feasible_rule_ids),
        "agents": [
            {
                "type": core.agent_type_name(a),
                "R": sorted(a.rule_ids),
                "Y": sorted(a.outcomes),
            }
            for a in instance.agents
        ],
    }


DIGEST_KINDS = ("conseq", "abs_disj", "abs_conj", "ii_disj", "ii_conj")


def _digest_corpus():
    """Seeded (name, payload) pairs: adc and generic files of every agent type."""
    rng = random.Random(2026)
    corpus = []
    for n in (3, 40, 400):
        per_kind = [random_adc_instance(rng, n, kind) for kind in DIGEST_KINDS]
        family = sorted(per_kind[0].feasible_thresholds)
        mixed = AdcInstance(
            per_kind[0].votes,
            tuple(rng.choice(per_kind).agents[i] for i in range(n)),
            frozenset(rng.sample(family, rng.randint(1, len(family)))),
        )
        for kind, inst in zip(DIGEST_KINDS + ("mixed",), per_kind + [mixed]):
            corpus.append((f"adc-{kind}-{n}", serialize.adc_instance_to_dict(inst)))
            generic = _generic_instance_to_dict(adc_to_generic(inst))
            corpus.append((f"generic-{kind}-{n}", generic))
    for i in range(20):
        generic = _generic_instance_to_dict(random_generic_instance(rng))
        corpus.append((f"generic-random-{i}", generic))
    return corpus


def test_solve_stdout_digest_is_stable(capsys, tmp_path):
    # One digest over (argv, exit code, stdout) of `solve` and `solve
    # --mechanism oracle` on a seeded corpus of every agent type at
    # n = 3, 40 and 400; any change in a decision, a tie-break, an
    # accepted_by list, a tally or the number formatting changes it.
    corpus = _digest_corpus()
    types = {a["type"] for _, payload in corpus for a in payload["agents"]}
    assert types == set(core.AGENT_TYPES)
    digest = hashlib.sha256()
    for name, payload in corpus:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        for extra in ([], ["--mechanism", "oracle"]):
            code, out, _ = run_cli(capsys, "solve", str(path), *extra)
            digest.update(json.dumps([["solve", name, *extra], code, out]).encode() + b"\n")
    assert digest.hexdigest() == (
        "c8ffb6c0d21e3cac43b5f7a5e0a1d7c785389b032c41d817c98eb6bbafc9a927"
    )


def test_solving_many_instances_retains_no_per_instance_state(capsys, tmp_path):
    # Each instance owns its threshold -> outcome lookup and the winner's id:
    # 20 solves at distinct n ~ 2 000 and distinct vote counts must leave
    # nothing of them behind, in the threshold lookups or in rule ids.
    paths = []
    for i in range(20):
        n, votes_p = 2000 + i, 50 * i + 7
        votes = "p" * votes_p + "r" * (n - votes_p)
        agents = [{"type": "consequentialist", "Y": [v], "R_t": []} for v in votes]
        path = tmp_path / f"instance-{i}.json"
        path.write_text(json.dumps({"kind": "adc", "n": n, "votes": votes, "agents": agents}))
        paths.append(str(path))
    run_cli(capsys, "solve", paths[0])  # warm-up: the parser and lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for path in paths:
            code, _, _ = run_cli(capsys, "solve", path)
            assert code == 0
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000, f"{retained} bytes retained after 20 solves"


def _close_after_first_line(*argv):
    """Run the CLI, close its stdout after the first line; return (exit code, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "acceptmax.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert first.startswith(b"{")
    return code, err


@pytest.mark.parametrize(
    "argv",
    [
        # Both print far more than a pipe holds (about 120 kB and 4 MB), so
        # the child is still writing when the reader goes.
        ["bounds", "all", *[f"--n={n}" for n in range(3, 17)], "--k", "2"],
        ["gen", "any-none", "--n", "5", "--count", "20000"],
    ],
    ids=["bounds", "gen"],
)
def test_closed_stdout_exits_141_quietly(argv):
    code, err = _close_after_first_line(*argv)
    assert code == cli.EXIT_PIPE == 141
    assert err == b""


class TestParserReuse:
    """``main`` reuses one parser; no call may see another call's arguments."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_appended_option_starts_empty_each_call(self, capsys):
        for n in (3, 4):
            code, out, _ = run_cli(capsys, "bounds", "abs-disj-r1", "--n", str(n))
            assert code == 0
            rows = out.splitlines()
            assert len(rows) == 1 and json.loads(rows[0])["n"] == n

    def test_defaults_come_back_after_an_option(self, capsys, write_json):
        path = write_json(ADC_CONSEQ)
        code, out, _ = run_cli(capsys, "solve", path, "--mechanism", "oracle")
        assert code == 0 and "tally" in json.loads(out)
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0 and "tally" not in json.loads(out)

    def test_valid_call_after_argparse_error(self, capsys, write_json):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "abs-disj-r1", "--n", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(capsys, "solve", write_json(ADC_CONSEQ))
        assert code == 0 and json.loads(out)["count"] == 2 and err == ""


# Each argv with whether ``parse_command_line`` parses it in one pass (True)
# or hands it to the whole parser (False).
ONE_PASS_CASES = {
    "solve": (["solve", "x.json"], True),
    "solve oracle": (["solve", "x.json", "--mechanism", "oracle"], True),
    "solve option first": (["solve", "--mechanism=oracle", "x.json"], True),
    "amend": (["amend", "x.json"], True),
    "amend one step": (["amend", "x.json", "--one-step"], True),
    "bounds": (["bounds", "all", "--n", "3", "--n=4", "--mode", "exhaustive", "--k", "2"], True),
    "gen": (["gen", "abs-disj-k", "--n", "5", "--seed", "3", "--count", "2", "--k", "1"], True),
    "gen amendment": (["gen", "amendment"], True),
    "top-level -h": (["-h"], False),
    "top-level --help": (["--help"], False),
    "solve -h": (["solve", "-h"], True),
    "amend -h": (["amend", "x.json", "-h"], True),
    "bounds --help": (["bounds", "--help"], True),
    "gen -h": (["gen", "-h", "--n", "1"], True),
    "missing path": (["solve"], True),
    "missing --n": (["bounds", "all"], True),
    "missing option value": (["gen", "any-none", "--count"], True),
    "bad mechanism": (["solve", "x.json", "--mechanism", "fast"], True),
    "abbreviated --mech": (["solve", "x.json", "--mech", "oracle"], True),
    "abbreviated --one": (["amend", "x.json", "--one"], True),
    "abbreviated --m": (["bounds", "all", "--n", "3", "--m", "auto", "--n", "4"], True),
    "extra positional": (["solve", "a.json", "b.json"], False),
    "unknown option": (["amend", "x.json", "--mechanism", "oracle"], False),
    "--threads after the command": (["solve", "x.json", "--threads", "2"], False),
    "--threads= after the command": (["bounds", "all", "--n", "3", "--threads=2"], False),
    "--threads before the command": (["--threads", "2", "solve", "x.json"], False),
    "bad --threads": (["--threads", "two", "bounds", "all", "--n", "3"], False),
    "-- before the path": (["solve", "--", "x.json"], True),
    "-- after the path": (["solve", "x.json", "--"], True),
    "-- before the command": (["--", "solve", "x.json"], False),
    "path like an option": (["solve", "-1.json"], True),
    "-- then a path like an option": (["solve", "--", "-1.json"], True),
    "--= abbreviates two options": (["solve", "x.json", "--=x"], False),
    "--= after --": (["solve", "--", "--=x"], False),
    "unknown command": (["vote", "x.json"], False),
    "command in another case": (["Solve", "x.json"], False),
    "bounds --n 1": (["bounds", "all", "--n", "1"], True),
    "gen --count -1": (["gen", "any-none", "--count", "-1"], True),
    "gen --n=-1": (["gen", "any-none", "--n=-1"], True),
    "no argv": ([], False),
}


def _parsed(parse, argv, capsys):
    """(exit code or None, stdout, stderr, the namespace's fields in order) of one parse."""
    try:
        fields, code = list(vars(parse(argv)).items()), None
    except SystemExit as exc:
        fields, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, fields


class TestOnePassParse:
    """``parse_command_line`` gives what the whole parser gives, in one parse where it can."""

    @pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
    def test_same_result_as_the_whole_parser(self, capsys, monkeypatch, case):
        argv, one_pass = ONE_PASS_CASES[case]
        parser = cli.build_parser()
        whole = _parsed(parser.parse_args, list(argv), capsys)
        whole_calls = []

        def counted(args=None, namespace=None):
            whole_calls.append(args)
            return type(parser).parse_args(parser, args, namespace)

        monkeypatch.setattr(parser, "parse_args", counted)
        assert _parsed(cli.parse_command_line, list(argv), capsys) == whole
        assert whole_calls == ([] if one_pass else [argv])

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, write_json):
        path = write_json(ADC_CONSEQ)
        monkeypatch.setattr(sys, "argv", ["acceptmax", "solve", path, "--mechanism", "oracle"])
        whole = _parsed(lambda _: cli.build_parser().parse_args(), None, capsys)
        assert _parsed(cli.parse_command_line, None, capsys) == whole
        assert ("mechanism", "oracle") in whole[3]
        code, out, err = run_cli(capsys, "solve", path, "--mechanism", "oracle")
        assert cli.main() == code == 0
        assert capsys.readouterr() == (out, err)
        assert "tally" in json.loads(out)


def _with_agent(payload, i, **fields):
    out = copy.deepcopy(payload)
    out["agents"][i].update(fields)
    return out


def _without_field(payload, i, key):
    out = copy.deepcopy(payload)
    del out["agents"][i][key]
    return out


def _agent_replaced(payload, i, value):
    out = copy.deepcopy(payload)
    out["agents"][i] = value
    return out


def _error_line(message):
    """The whole stderr line: a case given this pins its message exactly."""
    return f"error: {message}\n"


MALFORMED = {
    "R_t string": (_with_agent(ADC_II_DISJ, 0, R_t=["2"]), "thresholds must be integers"),
    "R_t bool": (_with_agent(ADC_II_DISJ, 0, R_t=[True]), "thresholds must be integers"),
    "R_delta den 0": (
        _with_agent(ADC_II_DISJ, 1, R_delta=[{"num": 1, "den": 0}]),
        "nonzero integer den",
    ),
    "R_delta 1/0": (_with_agent(ADC_II_DISJ, 1, R_delta=["1/0"]), "'1/0' is not a rational"),
    "R_delta string num": (
        _with_agent(ADC_II_DISJ, 1, R_delta=[{"num": "1", "den": 2}]),
        "integer num",
    ),
    "R_delta abc": (_with_agent(ADC_II_DISJ, 1, R_delta=["abc"]), "'abc' is not a rational"),
    "R_delta out of range": (
        _with_agent(ADC_II_DISJ, 1, R_delta=[1]),
        _error_line("agents[1]: fractional threshold 1 outside [0, 1)"),
    ),
    "R_delta exponent": (
        _with_agent(ADC_II_DISJ, 1, R_delta=["1e-999999999"]),
        "'1e-999999999' is not a rational",
    ),
    "R_delta null": (
        _with_agent(ADC_II_DISJ, 0, R_delta=[None]),
        _error_line("agents[0]: expected a rational"),
    ),
    "R_delta float": (
        _with_agent(ADC_II_DISJ, 0, R_delta=[0.5]),
        _error_line("agents[0]: expected a rational"),
    ),
    "adc Y nested": (_with_agent(ADC_II_DISJ, 0, Y=[["p"]]), "field 'Y' holds a list"),
    # An earlier agent holds the equal int, so the union of all threshold sets
    # has only ints: the element types must be checked one by one.
    "R_t bool after equal int": (
        _with_agent(_with_agent(ADC_II_DISJ, 0, R_t=[1]), 1, R_t=[True]),
        _error_line("adc instance: agent 1 thresholds must be integers in [1, 3]"),
    ),
    "R_t float after equal int": (
        _with_agent(_with_agent(ADC_II_DISJ, 0, R_t=[2]), 1, R_t=[2.0]),
        _error_line("adc instance: agent 1 thresholds must be integers in [1, 3]"),
    ),
    # Within one list the int absorbs an equal float or bool, in either order.
    "R_t int then equal float": (
        _with_agent(ADC_II_DISJ, 0, R_t=[2, 2.0]),
        _error_line("adc instance: agent 0 thresholds must be integers in [1, 3]"),
    ),
    "R_t float then equal int": (
        _with_agent(ADC_II_DISJ, 0, R_t=[2.0, 2]),
        _error_line("adc instance: agent 0 thresholds must be integers in [1, 3]"),
    ),
    "R_t int then equal bool": (
        _with_agent(ADC_II_DISJ, 0, R_t=[1, True]),
        _error_line("adc instance: agent 0 thresholds must be integers in [1, 3]"),
    ),
    "feasible_t int then equal float": (
        {**ADC_II_DISJ, "feasible_t": [2, 2.0, 3]},
        _error_line("adc instance: feasible thresholds must be a nonempty family subset"),
    ),
    "feasible_t float then equal int": (
        {**ADC_II_DISJ, "feasible_t": [2.0, 2, 3]},
        _error_line("adc instance: feasible thresholds must be a nonempty family subset"),
    ),
    "adc type list": (_with_agent(ADC_II_DISJ, 0, type=["x"]), "unknown agent type"),
    "adc n string": ({**ADC_II_DISJ, "n": "3"}, "field 'n' must be an integer"),
    "adc votes number": ({**ADC_II_DISJ, "votes": 3}, "'votes' must be a string or a list"),
    "feasible_t nested": ({**ADC_II_DISJ, "feasible_t": [[2]]}, "'feasible_t' holds a list"),
    "feasible_t string": ({**ADC_II_DISJ, "feasible_t": ["2"]}, "feasible thresholds"),
    "generic Y nested": (_with_agent(GENERIC, 1, Y=[["a"]]), "field 'Y' holds a list"),
    "generic type list": (_with_agent(GENERIC, 0, type=["x"]), "unknown agent type"),
    "generic outcome number": ({**GENERIC, "outcomes": ["A", 2]}, "'outcomes' must list strings"),
    "generic rule id list": (
        {**GENERIC, "rules": [{"id": ["r1"], "value": "A"}]},
        "'id' and 'value' must be strings",
    ),
    "generic feasible nested": (
        {**GENERIC, "feasible_rules": [["r1"]]},
        "'feasible_rules' holds a list",
    ),
    "generic feasible outcome unknown": (
        {**GENERIC, "feasible_outcomes": ["Z"]},
        _error_line("generic instance: feasible outcomes outside the outcome universe"),
    ),
    "generic no agents": (
        {**GENERIC, "agents": []},
        _error_line("generic instance: instance has no agents"),
    ),
    "adc agent missing type": (
        _without_field(ADC_II_DISJ, 2, "type"),
        _error_line("agents[2]: missing field 'type'"),
    ),
    "adc agent missing Y": (
        _without_field(ADC_II_DISJ, 2, "Y"),
        _error_line("agents[2]: missing field 'Y'"),
    ),
    "adc agent unknown type": (
        _with_agent(ADC_II_DISJ, 2, type="dictator"),
        _error_line("agents[2]: unknown agent type 'dictator'"),
    ),
    "adc agent unknown type before missing Y": (
        _without_field(_with_agent(ADC_II_DISJ, 2, type="dictator"), 2, "Y"),
        _error_line("agents[2]: unknown agent type 'dictator'"),
    ),
    "adc consequentialist with R_t": (
        _with_agent(ADC_CONSEQ, 1, R_t=[2]),
        _error_line("agents[1]: type 'consequentialist' must have no rule set"),
    ),
    "adc proceduralist with Y": (
        _with_agent(ADC_T9_T10_TIE, 3, Y=["p"]),
        _error_line("agents[3]: type 'absolute_proceduralist' must have no outcome set"),
    ),
    "adc agent not an object": (
        _agent_replaced(ADC_II_DISJ, 2, 5),
        _error_line("agents[2]: expected an object, got int"),
    ),
    "generic agent missing type": (
        _without_field(GENERIC, 1, "type"),
        _error_line("agents[1]: missing field 'type'"),
    ),
    "generic agent unknown type": (
        _with_agent(GENERIC, 1, type="dictator"),
        _error_line("agents[1]: unknown agent type 'dictator'"),
    ),
    "generic consequentialist with R": (
        _with_agent(GENERIC, 1, R=["r1"]),
        _error_line("agents[1]: type 'consequentialist' must have no rule set"),
    ),
    "generic proceduralist with Y": (
        _with_agent(GENERIC, 1, type="ii_proceduralist"),
        _error_line("agents[1]: type 'ii_proceduralist' must have no outcome set"),
    ),
    "generic agent not an object": (
        _agent_replaced(GENERIC, 1, "agent"),
        _error_line("agents[1]: expected an object, got str"),
    ),
    "amendment n string": ({**AMENDMENT, "n": "5"}, "field 'n' must be an integer"),
    "amendment peak string": (
        {**AMENDMENT, "peaks_t": ["3", 4, 4, 5, 5]},
        "'peaks_t' must list integers",
    ),
    "amendment status quo float": (
        {**AMENDMENT, "status_quo_t": 3.0},
        "'status_quo_t' must be an integer",
    ),
    "feasible_t not a list": (
        {**ADC_II_DISJ, "feasible_t": "23"},
        _error_line("adc instance: field 'feasible_t' must be a list"),
    ),
    "generic feasible_outcomes string": (
        {**GENERIC, "feasible_outcomes": "AB"},
        _error_line("generic instance: field 'feasible_outcomes' must be a list"),
    ),
    "generic feasible_outcomes null": (
        {**GENERIC, "feasible_outcomes": None},
        _error_line("generic instance: field 'feasible_outcomes' must be a list"),
    ),
    "generic feasible_rules string": (
        {**GENERIC, "feasible_rules": "r1"},
        _error_line("generic instance: field 'feasible_rules' must be a list"),
    ),
    "generic feasible_rules null": (
        {**GENERIC, "feasible_rules": None},
        _error_line("generic instance: field 'feasible_rules' must be a list"),
    ),
    # Each optional set is read on its own, outcomes first: a bad element in
    # 'feasible_outcomes' is named before a non-list 'feasible_rules'.
    "generic both feasible fields bad": (
        {**GENERIC, "feasible_outcomes": [["A"]], "feasible_rules": "r1"},
        _error_line("generic instance: field 'feasible_outcomes' holds a list"),
    ),
    "adc no votes": (
        {**ADC_II_DISJ, "n": 0, "votes": "", "agents": []},
        _error_line("adc instance: instance has no votes"),
    ),
    "adc vote x": (
        {**ADC_II_DISJ, "votes": "ppx"},
        _error_line("adc instance: votes must be 'r' or 'p'"),
    ),
    # The votes are checked as one set: an unhashable vote is no outcome either.
    "adc vote list": (
        {**ADC_II_DISJ, "votes": [["p"], "p", "r"]},
        _error_line("adc instance: votes must be 'r' or 'p'"),
    ),
    "adc vote number": (
        {**ADC_II_DISJ, "votes": [1, "p", "r"]},
        _error_line("adc instance: votes must be 'r' or 'p'"),
    ),
    "generic duplicate outcome": (
        {**GENERIC, "outcomes": ["A", "B", "A"]},
        _error_line("generic instance: duplicate outcome ids"),
    ),
    "amendment n 0": (
        {**AMENDMENT, "n": 0, "peaks_t": []},
        _error_line("amendment instance: instance has no agents"),
    ),
    # The peaks are checked before the vote policy is converted.
    "amendment bad peak and policy": (
        {**AMENDMENT, "peaks_t": [1, 4, 4, 5, 5], "vote_policy": "bogus"},
        _error_line("amendment instance: peak outside the feasible threshold family"),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_element_exits_2(capsys, write_json, case):
    payload, message = MALFORMED[case]
    command = "amend" if payload.get("kind") == "amendment" else "solve"
    code, out, err = run_cli(capsys, command, write_json(payload))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err


# Each kind of error the adc parser finds in one agent, in the order it checks
# them: planted at agents 1 and 3, the error reported is agent 1's own.
ADC_FIVE = {
    "kind": "adc",
    "n": 5,
    "votes": "pprrp",
    "agents": [{"type": "ii_disjunctivist", "Y": ["p"], "R_t": [3]} for _ in range(5)],
}
AGENT_ERRORS = {
    "not an object": lambda payload, i: _agent_replaced(payload, i, ["x"]),
    "no type": lambda payload, i: _without_field(payload, i, "type"),
    "unknown type": lambda payload, i: _with_agent(payload, i, type="dictator"),
    "no Y": lambda payload, i: _without_field(payload, i, "Y"),
    "not a list": lambda payload, i: _with_agent(payload, i, R_t="3"),
    "unhashable element": lambda payload, i: _with_agent(payload, i, Y=[["p"]]),
    "float absorbed by equal int": lambda payload, i: _with_agent(payload, i, R_t=[2, 2.0]),
    "bad R_delta": lambda payload, i: _with_agent(payload, i, R_delta=["abc"]),
    "set the type may not fill": lambda payload, i: _with_agent(
        payload, i, type="ii_proceduralist"
    ),
}


@pytest.mark.parametrize("first, second", itertools.permutations(AGENT_ERRORS, 2))
def test_adc_parser_names_the_lowest_bad_agent(first, second):
    alone = AGENT_ERRORS[first](ADC_FIVE, 1)
    both = AGENT_ERRORS[second](alone, 3)
    with pytest.raises(serialize.ParseError) as expected:
        serialize.parse_instance(alone)
    message = str(expected.value)
    assert message.startswith(("agents[1]: ", "adc instance: agent 1 ")), message
    with pytest.raises(serialize.ParseError) as planted:
        serialize.parse_instance(both)
    assert str(planted.value) == message


# Files no instance can be read from, rejected before their kind is looked at.
UNREADABLE = {
    "not json": (b"{not json", "bad.json:1:2: Expecting property name"),
    # Past Python's 4300-digit limit for int(); without one, an unknown kind.
    "integer of 5000 digits": (b'{"kind": ' + b"7" * 5000 + b"}", ""),
    "not utf-8": (b'{"kind": "adc\xff"}', "can't decode byte 0xff"),
    "arrays nested 100000 deep": (b"[" * 100_000, "recursion depth"),
}


@pytest.mark.parametrize("command", ["solve", "amend"])
@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_file_exits_2(capsys, tmp_path, case, command):
    content, message = UNREADABLE[case]
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}") and message in err


# --- Input boundary: mutate valid instances into arbitrary JSON ------------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=12),
    st.integers(),
    st.floats(),
    st.sampled_from(["p", "r", "A", "B", "r1", "t2", "2", "1/2", "1/0", "abc", ""]),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["num", "den", "type", "Y", "R_t", "id"]) | st.text(max_size=3),
        inner,
        max_size=4,
    ),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated(draw, base):
    """``base`` with one to three nodes replaced by arbitrary JSON or deleted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            del parent[path[-1]]
    return doc


BOUNDARY_CASES = {
    "adc-solve": (ADC_II_DISJ, ["solve"]),
    "adc-oracle": (ADC_CONSEQ, ["solve", "--mechanism", "oracle"]),
    "generic-solve": (_with_agent(GENERIC, 1, vote="A"), ["solve"]),
    "generic-oracle": (GENERIC, ["solve", "--mechanism", "oracle"]),
    "amendment-iterative": (AMENDMENT, ["amend"]),
    "amendment-one-step": (AMENDMENT, ["amend", "--one-step"]),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_arbitrary_json_exits_0_or_2(tmp_path_factory, case):
    base, command = BOUNDARY_CASES[case]
    path = tmp_path_factory.mktemp("boundary") / "instance.json"

    @settings(max_examples=100, deadline=None)
    @given(mutated(base))
    def check(doc):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command[0], str(path), *command[1:]])
        if code == 0:
            json.loads(out.getvalue())
        else:
            assert code == 2 and err.getvalue().startswith("error:"), err.getvalue()

    check()
