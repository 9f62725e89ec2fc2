"""Command line interface: schemas, exit codes, deterministic output."""

import json

import pytest

from acceptmax import cli, serialize
from acceptmax.adc import AdcInstance, adc_to_generic
from acceptmax.amendment import AmendmentInstance, VotePolicy
from acceptmax.core import max_accept

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


class TestGen:
    def test_seeded_output_is_deterministic(self, capsys):
        runs = [
            run_cli(capsys, "gen", "ii-disj-r1", "--n", "4", "--seed", "7", "--count", "3")
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_generated_instances_validate_and_solve(self, capsys):
        for class_id in sorted(cli.bounds.CLASSES):
            k = ["--k", "1"] if cli.bounds.CLASSES[class_id].needs_k else []
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


class TestSerializeRoundTrip:
    def test_adc_round_trip(self):
        inst = serialize.parse_instance(ADC_II_DISJ)
        again = serialize.parse_instance(serialize.adc_instance_to_dict(inst))
        assert inst == again

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
