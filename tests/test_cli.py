import json

import pytest

from kspace.cli import main
from kspace.instances import builtin_t3


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_t3_summary(self, capsys):
        code, out, _ = invoke(capsys, "validate", "t3")
        assert code == 0
        assert "atoms: 4" in out
        assert "levels: 3" in out

    def test_mask_violation_names_reference(self, capsys, tmp_path):
        doc = builtin_t3()
        doc.truth_rules[1]["condition"] = {"present": "c2"}  # level 2 >= 1
        path = tmp_path / "bad.json"
        path.write_text(doc.to_json())
        code, _, err = invoke(capsys, "validate", str(path))
        assert code == 2
        assert "c2" in err

    def test_missing_file(self, capsys):
        code, _, _ = invoke(capsys, "validate", "/no/such/file.json")
        assert code == 3

    def test_file_instance_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "t3.json"
        path.write_text(builtin_t3().to_json())
        code, _, _ = invoke(capsys, "validate", str(path))
        assert code == 0


class TestRun:
    def test_t3_lowest(self, capsys):
        code, out, _ = invoke(capsys, "run", "t3",
                              "--strategy", "lowest-level-first", "--fuel", "10")
        assert code == 0
        assert "steps: 3" in out
        assert 'final_state: ["a0", "b1\'", "c2"]' in out
        assert "is_sound: true" in out

    def test_trace_lines_are_jsonl(self, capsys):
        _, out, _ = invoke(capsys, "run", "t3", "--fuel", "10")
        steps = [json.loads(line) for line in out.splitlines()
                 if line.startswith("{")]
        assert len(steps) == 3
        assert set(steps[0]) == {"step_index", "level", "chosen", "dropped",
                                 "state_after", "sound_after"}

    def test_argmin_witness(self, capsys):
        code, out, _ = invoke(capsys, "run", "argmin:5,3,7,3,9", "--fuel", "64")
        assert code == 0
        assert "witness: 1" in out

    def test_fuel_exhaustion_exit_code(self, capsys):
        code, out, _ = invoke(capsys, "run", "t3", "--fuel", "1")
        assert code == 4
        assert "steps: 1" in out


class TestExplore:
    def test_t3_stats(self, capsys):
        code, out, _ = invoke(capsys, "explore", "t3")
        assert code == 0
        assert "node_count: 8" in out
        assert "edge_count: 7" in out
        assert "max_depth: 4" in out
        assert "edges_checked: 7" in out
        assert "check_failures: 0" in out

    def test_cascade_completes(self, capsys):
        code, out, _ = invoke(capsys, "explore", "cascade:2,1,0")
        assert code == 0
        assert "check_failures: 0" in out

    def test_depth_budget_exit_code(self, capsys):
        code, _, err = invoke(capsys, "explore", "t3", "--max-depth", "2")
        assert code == 4

    def test_seed_is_not_an_option(self, capsys):
        # only `run` has a seeded strategy
        for command in ("explore", "lint"):
            with pytest.raises(SystemExit) as err:
                main([command, "t3", "--seed", "1"])
            assert err.value.code == 2


class TestLint:
    def test_t3_clean(self, capsys):
        code, _, _ = invoke(capsys, "lint", "t3")
        assert code == 0

    def test_argmin_clean(self, capsys):
        code, _, _ = invoke(capsys, "lint", "argmin:3,2,1,0")
        assert code == 0

    def test_contract_breach_reported(self, capsys, tmp_path):
        doc = builtin_t3()
        # unconditionally proposing c2 breaks the truth clause at {}
        doc.realizer_rules.append(
            {"condition": {"const": True}, "propose": ["c2"]})
        path = tmp_path / "breach.json"
        path.write_text(doc.to_json())
        code, out, _ = invoke(capsys, "lint", str(path))
        assert code == 5
        assert "truth-false" in out


class TestDeterminism:
    def test_json_output_is_byte_identical(self, capsys):
        argv = ["explore", "random:12,3,10,7", "--format", "json"]
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_run_seeded_random_reproducible(self, capsys):
        argv = ["run", "cascade:3,2,1", "--strategy", "seeded-random",
                "--seed", "9", "--format", "json"]
        _, out1, _ = invoke(capsys, *argv)
        _, out2, _ = invoke(capsys, *argv)
        assert out1 == out2


class TestBadSpecs:
    def test_bad_builtin_grammar(self, capsys):
        code, _, err = invoke(capsys, "validate", "cascade:1,2")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "stats.json"
        code, out, _ = invoke(capsys, "explore", "t3", "--format", "json",
                              "--output", str(out_path))
        assert code == 0
        assert out == ""
        data = json.loads(out_path.read_text())
        assert data["node_count"] == 8
