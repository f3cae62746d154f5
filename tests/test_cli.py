"""Command-line front end.

Claims:
    - every command emits one JSON document with the documented fields
    - output bytes are identical across repeated runs
    - exit codes: 0 ok, 2 parse, 3 precondition, 4 cap, 5 internal
    - each command accepts only the flags it reads: --digits norm alone,
      --oracle-cap norm, enumerate-norming and witness alone; any other
      command refuses either with argparse's usage error (exit 2)
    - --oracle-cap alone sets the enumeration cap, 13 by default; a cap
      below 0 exits 2 where it is read (norm --oracle, enumerate-norming,
      witness), and its error echoes a long cap cut short;
      JTX_ORACLE_CAP, whatever its value, changes no command's exit code
      or output
    - norm --digits accepts 0..1000, with or without --oracle, and a
      vector file that cannot be read is reported before a --digits out
      of range; vector values reject exponent forms, "_" and non-ASCII
      characters, each with exit 2, as do a key repeated
      in a vector or partition file, a partition segment end that is not
      a string, a vector or partition file that is not UTF-8, a bare
      integer past the interpreter's 4,300-digit limit on integer text
      and JSON nested past the recursion limit, each with an InputError
      document; an error echoes a long value, node key or repeated key
      cut short, so a 100,000 character one leaves a stderr under 1,000
      bytes; ASCII values parse as before
    - an --out path that cannot be written exits 2 with an InputError
      document, for norm and for dot, and so does a --partition file that
      cannot be read, for consistent and for dot; the message echoes a
      path, and the OS error that repeats it, whole when short and cut
      short past 200 characters, as does the out-of-range --digits
      message; an integer flag that is no integer, or one past the
      4,300-digit limit, gets argparse's plain-text usage error (exit 2)
      with the value cut short; the integer flags refuse "_" and
      non-ASCII digits, as vector values do
    - norm reads the vector from stdin for "-" and gives the document it
      gives for the same file, the error document for bytes that are not
      UTF-8 included, whatever text layer stdin has, in a fresh process
      under LC_ALL=C and PYTHONIOENCODING=latin-1 too
    - a partition file that lists a segment twice exits 3 with the
      overlap message, for consistent and for dot
    - CI's fresh-process checks on mixed denominators (norm and its
      oracle) and on long stretches (extreme and separated) hold in a
      new interpreter
    - dot --partition overlays the partition file's segments
    - witness answers vanishes_on_all_norming iff |ran(x)| is within the
      oracle cap, and null past it
    - a result too long to write out in decimal exits 2 with an error
      document, and extreme and witness find scales below 2^-64
    - isolatable builds one solver per command and lists its nodes in
      canonical order, and witness builds one solver, on the input vector
    - the CLI example in README.md shows the exact output bytes
    - the argument parser is built once per process; an argparse error or
      --help between calls, or the golden commands run in reverse order,
      leave every later output byte-identical to a fresh process
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import jtx.cli as cli_mod
from jtx import Node, NormSolver, Partition, Segment, TreeVector, jt_norm_sq
from jtx.cli import main
from jtx.dot import render_dot
from jtx.extremality import _isolation_report

EXAMPLE = {"vector": {"": "1", "00": "1", "01": "1"}}
SIGNED = {"vector": {"": "1", "0": "-1"}}
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def vec_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNorm:
    def test_basic_document(self, vec_file, capsys):
        code, out, _ = _run(capsys, ["norm", vec_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["norm_sq"] == "5"
        assert doc["norm_decimal"] == "2.236067977500"
        assert doc["witness"]["segments"] == [
            {"top": "", "bottom": "00"},
            {"top": "01", "bottom": "01"},
        ]

    def test_oracle_cross_check(self, vec_file, capsys):
        code, out, _ = _run(capsys, ["norm", vec_file, "--oracle"])
        assert code == 0
        assert json.loads(out)["oracle_norm_sq"] == "5"

    def test_digits_flag(self, vec_file, capsys):
        code, out, _ = _run(capsys, ["norm", vec_file, "--digits", "4"])
        assert json.loads(out)["norm_decimal"] == "2.2361"

    def test_byte_stable(self, vec_file, capsys):
        _, out1, _ = _run(capsys, ["norm", vec_file])
        _, out2, _ = _run(capsys, ["norm", vec_file])
        assert out1 == out2

    def test_stdin_matches_file(self, vec_file, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(EXAMPLE)))
        from_stdin = _run(capsys, ["norm", "-"])
        assert from_stdin == _run(capsys, ["norm", vec_file])
        assert from_stdin[0] == 0

    def test_out_file(self, vec_file, tmp_path, capsys):
        target = tmp_path / "norm.json"
        code, out, _ = _run(capsys, ["norm", vec_file, "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["norm_sq"] == "5"


class TestGap:
    def test_worked_pair(self, vec_file, capsys):
        code, out, _ = _run(capsys, ["gap", vec_file, "--u", "", "--v", "0"])
        assert code == 0
        assert json.loads(out)["gap"] == "2"

    def test_outside_range_is_precondition_error(self, vec_file, capsys):
        code, _, err = _run(capsys, ["gap", vec_file, "--u", "", "--v", "111"])
        assert code == 3
        assert json.loads(err)["error"]["type"] == "DomainError"


class TestSeparated:
    def test_document(self, vec_file, capsys):
        code, out, _ = _run(capsys, ["separated", vec_file])
        doc = json.loads(out)
        assert code == 0
        assert doc["separated"] is False
        assert doc["first_blocked_pair"] == ["", "0"]
        assert doc["mode"] == "parent-child"
        assert {"u": "", "v": "0", "gap": "2"} in doc["pair_gaps"]

    def test_all_pairs_mode(self, vec_file, capsys):
        _, out, _ = _run(capsys, ["separated", vec_file, "--all-pairs"])
        doc = json.loads(out)
        assert doc["mode"] == "all-comparable"
        assert {"u": "", "v": "01", "gap": "0"} in doc["pair_gaps"]


class TestExtreme:
    def test_not_extreme_document(self, vec_file, capsys):
        code, out, _ = _run(capsys, ["extreme", vec_file])
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "not-extreme"
        assert doc["basis"] == "blocked-pair"
        assert doc["blocked_pair"] == ["", "0"]
        assert doc["epsilon"] == "1/2"
        assert doc["witness_y"] == {"vector": {"": "1/2", "0": "-1/2"}}
        assert doc["norm_sq"] == "5"

    def test_extreme_document(self, tmp_path, capsys):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps({"vector": {"": "1"}}))
        _, out, _ = _run(capsys, ["extreme", str(path)])
        doc = json.loads(out)
        assert doc["verdict"] == "extreme"
        assert doc["basis"] == "l2-equality"
        assert doc["witness_y"] is None

    def test_zero_vector_rejected(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"vector": {}}))
        code, _, err = _run(capsys, ["extreme", str(path)])
        assert code == 3

    def test_scale_past_64_halvings(self, tmp_path, capsys):
        eps = "1/1180591620717411303424"  # 2^-70
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"vector": {"": "1", "0": eps}}))
        code, out, _ = _run(capsys, ["extreme", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["epsilon"] == eps
        assert doc["witness_y"] == {"vector": {"": eps, "0": "-" + eps}}
        code, out, _ = _run(capsys, ["witness", str(path), "--u", "", "--v", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["epsilon"] == eps
        assert doc["vanishes_on_all_norming"] is True


class TestGreedy:
    def test_document(self, vec_file, capsys):
        code, out, _ = _run(capsys, ["greedy", vec_file])
        doc = json.loads(out)
        assert code == 0
        assert doc["norm_sq"] == "5"
        assert doc["partition"]["segments"] == [
            {"top": "", "bottom": "00"},
            {"top": "01", "bottom": "01"},
        ]
        assert doc["trace"]["s_values"] == {"": "2", "00": "1", "01": "1"}
        assert doc["trace"]["chosen"][""] == "00"
        assert doc["trace"]["ties"][""] == ["00", "01"]

    def test_tie_policy(self, vec_file, capsys):
        _, out, _ = _run(capsys, ["greedy", vec_file, "--tie-policy", "lex-max"])
        assert json.loads(out)["trace"]["chosen"][""] == "01"

    def test_signed_rejected(self, tmp_path, capsys):
        path = tmp_path / "signed.json"
        path.write_text(json.dumps(SIGNED))
        code, _, err = _run(capsys, ["greedy", str(path)])
        assert code == 3
        assert json.loads(err)["error"]["type"] == "PositivityError"


class TestConsistent:
    def test_consistent_partition(self, vec_file, tmp_path, capsys):
        part = tmp_path / "p.json"
        part.write_text(
            json.dumps(
                {
                    "segments": [
                        {"top": "", "bottom": "00"},
                        {"top": "01", "bottom": "01"},
                    ]
                }
            )
        )
        _, out, _ = _run(capsys, ["consistent", vec_file, "--partition", str(part)])
        assert json.loads(out) == {"consistent": True, "violations": []}

    def test_violating_partition(self, tmp_path, capsys):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps({"vector": {"": "1", "0": "2", "1": "1"}}))
        part = tmp_path / "p.json"
        part.write_text(
            json.dumps(
                {
                    "segments": [
                        {"top": "", "bottom": "1"},
                        {"top": "0", "bottom": "0"},
                    ]
                }
            )
        )
        _, out, _ = _run(capsys, ["consistent", str(vec), "--partition", str(part)])
        doc = json.loads(out)
        assert doc["consistent"] is False
        assert doc["violations"] == [
            {
                "segment": {"top": "", "bottom": "1"},
                "node": "",
                "chosen": "1",
                "better": "0",
                "chosen_sum": "1",
                "better_sum": "2",
            }
        ]


class TestOtherCommands:
    def test_equal_sums(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"vector": {"": "1", "0": "1"}}))
        _, out, _ = _run(capsys, ["equal-sums", str(path)])
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["branch_sums"][""] == {"0": "2", "1": "1"}
        assert doc["sibling_balance"][""] == ["1", "0"]
        assert doc["sigma"] == "2"

    def test_enumerate_norming(self, vec_file, capsys):
        _, out, _ = _run(capsys, ["enumerate-norming", vec_file])
        doc = json.loads(out)
        assert doc["norm_sq"] == "5"
        assert doc["count"] == 2
        assert doc["partitions"] == [
            {
                "segments": [
                    {"top": "", "bottom": "00"},
                    {"top": "01", "bottom": "01"},
                ]
            },
            {
                "segments": [
                    {"top": "", "bottom": "01"},
                    {"top": "00", "bottom": "00"},
                ]
            },
        ]

    def test_isolatable(self, vec_file, capsys):
        _, out, _ = _run(capsys, ["isolatable", vec_file])
        doc = json.loads(out)
        assert doc["all_isolatable"] is False
        assert doc["l2_match"] is False
        assert doc["nodes"] == {"": False, "00": True, "01": True}

    def test_isolatable_nodes_come_in_canonical_order(self, tmp_path, capsys):
        """The report fills per-node flags in canonical order (depth, then
        bits), and the document keeps that order without a sort."""
        rng = random.Random(40)
        grid = [format(i, f"0{d}b") if d else "" for d in range(5) for i in range(2**d)]
        path = tmp_path / "x.json"
        for _ in range(60):
            paths = rng.sample(grid, rng.randint(1, 9))
            vector = {p: rng.choice(["-2", "-1", "1", "3"]) for p in paths}
            per_node = _isolation_report(NormSolver(TreeVector.from_dict(vector)))[0]
            assert list(per_node) == sorted(map(Node, paths), key=Node.sort_key)
            path.write_text(json.dumps({"vector": vector}))
            _, out, _ = _run(capsys, ["isolatable", str(path)])
            assert list(json.loads(out)["nodes"]) == sorted(paths, key=lambda p: (len(p), p))

    def test_isolatable_builds_one_solver(self, vec_file, capsys, monkeypatch):
        from jtx.norm import NormSolver

        built = []
        init = NormSolver.__init__

        def counting_init(self, x):
            built.append(x)
            init(self, x)

        monkeypatch.setattr(NormSolver, "__init__", counting_init)
        code, out, _ = _run(capsys, ["isolatable", vec_file])
        assert code == 0
        assert json.loads(out)["all_isolatable"] is False
        assert len(built) == 1

    def test_witness_builds_one_solver_on_x(self, vec_file, capsys, monkeypatch):
        from jtx.norm import NormSolver
        from jtx.vector import TreeVector

        built = []
        init = NormSolver.__init__

        def counting_init(self, x):
            built.append(x)
            init(self, x)

        monkeypatch.setattr(NormSolver, "__init__", counting_init)
        code, out, _ = _run(capsys, ["witness", vec_file, "--u", "", "--v", "0"])
        assert code == 0
        assert json.loads(out)["norm_sq"] == "5"
        x = TreeVector.from_dict(EXAMPLE["vector"])
        assert built.count(x) == 1
        assert len(built) == 1  # each halving is checked on x's cached tables, not on x + y or x - y

    def test_witness(self, vec_file, capsys):
        _, out, _ = _run(capsys, ["witness", vec_file, "--u", "", "--v", "0"])
        doc = json.loads(out)
        assert doc["epsilon"] == "1/2"
        assert doc["y"] == {"vector": {"": "1/2", "0": "-1/2"}}
        assert doc["vanishes_on_all_norming"] is True

    def test_witness_past_the_cap(self, vec_file, capsys):
        """|ran(x)| = 4: a cap of 3 leaves the check unanswered, 4 answers it."""
        argv = ["witness", vec_file, "--u", "", "--v", "0", "--oracle-cap"]
        for cap, vanishes in [("3", None), ("4", True)]:
            code, out, _ = _run(capsys, [*argv, cap])
            assert code == 0
            assert json.loads(out)["vanishes_on_all_norming"] is vanishes

    def test_dot(self, vec_file, tmp_path, capsys):
        target = tmp_path / "ran.gv"
        code, out, _ = _run(capsys, ["dot", vec_file, "--out", str(target)])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"out": str(target), "nodes": 4, "segments": 2}
        text = target.read_text()
        assert text.startswith("digraph ran {")
        assert '"e" -> "0"' in text
        assert "style=dashed" in text  # the range-only node "0"

    def test_dot_overlays_a_partition_file(self, vec_file, tmp_path, capsys):
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"segments": [{"top": "", "bottom": "01"}]}))
        target = tmp_path / "ran.gv"
        argv = ["dot", vec_file, "--partition", str(part), "--out", str(target)]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert json.loads(out) == {"out": str(target), "nodes": 4, "segments": 1}
        x = TreeVector.from_dict(EXAMPLE["vector"])
        overlay = Partition.of(Segment(Node(""), Node("01")))
        assert target.read_text() == render_dot(x, overlay)
        assert overlay != jt_norm_sq(x).witness  # not the computed witness

    def test_dot_requires_out(self, vec_file, capsys):
        code, _, err = _run(capsys, ["dot", vec_file])
        assert code == 2


class TestByteStability:
    def test_every_command_twice(self, tmp_path, capsys):
        vec = tmp_path / "v.json"
        vec.write_text(
            json.dumps({"vector": {"": "1", "00": "1/2", "01": "3/4", "1": "2"}})
        )
        blocked = tmp_path / "b.json"  # pair (root, "0") is inseparable here
        blocked.write_text(json.dumps(EXAMPLE))
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"segments": [{"top": "", "bottom": "00"}]}))
        gv = tmp_path / "g.gv"
        commands = [
            ["norm", str(vec), "--oracle"],
            ["gap", str(vec), "--u", "", "--v", "0"],
            ["separated", str(vec), "--all-pairs"],
            ["extreme", str(vec)],
            ["greedy", str(vec)],
            ["consistent", str(vec), "--partition", str(part)],
            ["equal-sums", str(vec)],
            ["enumerate-norming", str(vec)],
            ["isolatable", str(vec)],
            ["witness", str(blocked), "--u", "", "--v", "0"],
            ["dot", str(vec), "--out", str(gv)],
        ]
        for argv in commands:
            code1, out1, _ = _run(capsys, argv)
            dot1 = gv.read_text() if argv[0] == "dot" else None
            code2, out2, _ = _run(capsys, argv)
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv
            if dot1 is not None:
                assert gv.read_text() == dot1


class TestErrors:
    def test_unreadable_file(self, capsys):
        code, _, err = _run(capsys, ["norm", "/nonexistent/x.json"])
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InputError"

    @pytest.mark.parametrize("command", [["consistent"], ["dot", "--out", "g.gv"]])
    def test_unreadable_partition(self, vec_file, tmp_path, capsys, command, monkeypatch):
        monkeypatch.chdir(tmp_path)
        missing = tmp_path / "missing.json"
        code, out, err = _run(capsys, [command[0], vec_file, *command[1:], "--partition", str(missing)])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert error["message"].startswith(f"cannot read {missing}: ")
        assert not (tmp_path / "g.gv").exists()

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = _run(capsys, ["norm", str(path)])
        assert code == 2

    def test_repeated_node_key(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text('{"vector": {"0": "1", "0": "-5", "": "2"}}')
        code, out, err = _run(capsys, ["norm", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "InputError", "message": "duplicate key '0' in a JSON object"
        }

    def test_repeated_partition_key(self, vec_file, tmp_path, capsys):
        part = tmp_path / "p.json"
        part.write_text('{"segments": [], "segments": []}')
        code, _, err = _run(capsys, ["consistent", vec_file, "--partition", str(part)])
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InputError"

    @pytest.mark.parametrize("data, message", [
        (b'{"segments": [{"top": 1, "bottom": "0"}]}', "segment ends must be strings, got 1"),
        (b'{"segments": [{"top": "\xff", "bottom": "0"}]}', "input is not UTF-8 text: "),
    ])
    def test_malformed_partition_file(self, vec_file, tmp_path, capsys, data, message):
        part = tmp_path / "p.json"
        part.write_bytes(data)
        code, out, err = _run(capsys, ["consistent", vec_file, "--partition", str(part)])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and error["message"].startswith(message)

    @pytest.mark.parametrize("command", [["consistent"], ["dot", "--out", "o.gv"]])
    def test_repeated_segment_is_an_overlap(self, vec_file, tmp_path, capsys, command, monkeypatch):
        monkeypatch.chdir(tmp_path)
        part = tmp_path / "repeated.json"
        part.write_text(json.dumps({"segments": [
            {"top": "", "bottom": "00"}, {"top": "", "bottom": "00"}, {"top": "01", "bottom": "01"},
        ]}))
        code, out, err = _run(capsys, [command[0], vec_file, *command[1:], "--partition", str(part)])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == {
            "type": "InvalidPartitionError",
            "message": "segments overlap: Segment('', '00') and Segment('', '00')",
        }
        assert not (tmp_path / "o.gv").exists()

    def test_non_utf8_vector_file(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_bytes(b'{"vector": {"": "1\xff"}}')
        code, out, err = _run(capsys, ["norm", str(path)])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert error["message"].startswith("input is not UTF-8 text: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    def test_non_utf8_stdin_matches_file(self, tmp_path, capsys, monkeypatch, encoding):
        data = b'{"x": "\xff", "vector": {"": "1"}}'
        path = tmp_path / "x.json"
        path.write_bytes(data)
        from_file = _run(capsys, ["norm", str(path)])
        assert from_file[:2] == (2, "")
        # stdin as the interpreter may open it: either text layer lets \xff through
        errors = "surrogateescape" if encoding == "utf-8" else "strict"
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding=encoding, errors=errors)
        monkeypatch.setattr(sys, "stdin", stdin)
        assert _run(capsys, ["norm", "-"]) == from_file

    def test_nesting_past_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"vector": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = _run(capsys, ["norm", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "InputError",
            "message": "invalid JSON: nested deeper than the recursion limit",
        }

    def test_bare_integer_past_the_digit_limit(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for kind, value in (("bare", "1" * 4301), ("string", '"' + "1" * 4301 + '"')):
                path = tmp_path / f"{kind}.json"
                path.write_text('{"vector": {"": ' + value + "}}")
                code, out, err = _run(capsys, ["norm", str(path)])
                assert (code, out) == (2, ""), kind
                assert json.loads(err)["error"]["type"] == "InputError"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_cap_exceeded(self, tmp_path, capsys):
        full = {"vector": {p: "1" for p in ["", "0", "1", "00", "01", "10", "11"]}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(full))
        code, _, err = _run(
            capsys, ["enumerate-norming", str(path), "--oracle-cap", "3"]
        )
        assert code == 4
        assert json.loads(err)["error"]["type"] == "CapError"

    def test_default_cap(self, tmp_path, capsys):
        """Without --oracle-cap the cap is 13: a 13-node range is enumerated, a 14-node one is not."""
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"vector": {"": "1", "0" * 12: "1"}}))
        code, out, _ = _run(capsys, ["enumerate-norming", str(path)])
        assert code == 0 and json.loads(out)["count"] == 1
        path.write_text(json.dumps({"vector": {"": "1", "0" * 13: "1"}}))
        code, out, err = _run(capsys, ["enumerate-norming", str(path)])
        assert (code, out) == (4, "")
        error = json.loads(err)["error"]
        assert error == {"type": "CapError", "message": "|ran(x)| = 14 exceeds the oracle node cap 13"}

    def test_negative_cap_flag_rejected(self, vec_file, capsys):
        code, out, err = _run(capsys, ["norm", vec_file, "--oracle", "--oracle-cap", "-1"])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error == {"type": "InputError", "message": "--oracle-cap must be at least 0, got -1"}

    def test_long_cap_leaves_a_short_error(self, vec_file, capsys):
        code, out, err = _run(capsys, ["norm", vec_file, "--oracle", "--oracle-cap", "-" + "1" * 4000])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and len(error["message"]) < 1000
        assert error["message"].endswith(" characters)")

    @pytest.mark.parametrize("env", ["2", "-1", "abc", "x" * 5000], ids=["2", "-1", "abc", "long"])
    def test_bad_cap_ignored_where_unread(self, vec_file, capsys, monkeypatch, env):
        """No command reads JTX_ORACLE_CAP; only norm --oracle, enumerate-norming
        and witness read --oracle-cap, and gap does not accept it."""
        gap = ["gap", vec_file, "--u", "", "--v", "0"]
        reading = [
            ["norm", vec_file, "--oracle"],
            ["enumerate-norming", vec_file],
            ["witness", vec_file, "--u", "", "--v", "0"],
        ]
        monkeypatch.delenv("JTX_ORACLE_CAP", raising=False)
        without = [_run(capsys, argv) for argv in reading]
        assert [code for code, _, _ in without] == [0, 0, 0]
        monkeypatch.setenv("JTX_ORACLE_CAP", env)
        assert [_run(capsys, argv) for argv in reading] == without
        for argv in (gap, ["norm", vec_file], ["separated", vec_file], ["extreme", vec_file]):
            assert _run(capsys, argv)[0] == 0, argv
        with pytest.raises(SystemExit) as exc:
            main([*gap, "--oracle-cap", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --oracle-cap -1\n")

    @pytest.mark.parametrize("argv", [
        ["norm", "{vec}", "--oracle"],
        ["enumerate-norming", "{vec}"],
        ["witness", "{vec}", "--u", "", "--v", "0"],
    ], ids=["norm-oracle", "enumerate-norming", "witness"])
    def test_bad_cap_rejected_where_read(self, vec_file, capsys, argv):
        argv = [a.format(vec=vec_file) for a in argv]
        assert _run(capsys, [*argv, "--oracle-cap", "-1"])[0] == 2

    def test_zero_cap_accepted(self, tmp_path, capsys):
        """The zero vector has an empty range, so cap 0 still admits it."""
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"vector": {}}))
        code, out, _ = _run(capsys, ["norm", str(path), "--oracle", "--oracle-cap", "0"])
        assert code == 0 and json.loads(out)["oracle_norm_sq"] == "0"

    @pytest.mark.parametrize("digits", ["0", "1000"])
    def test_digits_bounds_accepted(self, vec_file, capsys, digits):
        code, out, _ = _run(capsys, ["norm", vec_file, "--digits", digits])
        assert code == 0
        decimal = json.loads(out)["norm_decimal"]
        assert decimal.startswith("2")
        assert len(decimal) == (1 if digits == "0" else 1002)

    @pytest.mark.parametrize("command", [["norm"], ["norm", "--oracle"]])
    @pytest.mark.parametrize("digits", ["-1", "1001"])
    def test_digits_out_of_bounds(self, vec_file, capsys, command, digits):
        argv = [command[0], vec_file, *command[1:], "--digits", digits]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InputError"

    def test_unreadable_file_before_digits(self, tmp_path, capsys):
        """The vector is read before the decimal is written, so its error comes first."""
        missing = tmp_path / "missing.json"
        code, out, err = _run(capsys, ["norm", str(missing), "--digits", "1001"])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert error["message"].startswith(f"cannot read {missing}: ")

    @pytest.mark.parametrize("command", [
        "norm", "gap", "separated", "extreme", "greedy", "consistent",
        "equal-sums", "enumerate-norming", "isolatable", "witness", "dot",
    ])
    def test_flags_accepted_only_where_read(self, vec_file, tmp_path, capsys, command):
        """--digits belongs to norm, --oracle-cap to norm, enumerate-norming and
        witness; at their default values they change no output there, and any
        other command refuses them with argparse's usage error."""
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"segments": [{"top": "", "bottom": "00"}]}))
        extra = {
            "gap": ["--u", "", "--v", "0"],
            "witness": ["--u", "", "--v", "0"],
            "consistent": ["--partition", str(part)],
            "dot": ["--out", str(tmp_path / "g.gv")],
        }
        argv = [command, vec_file, *extra.get(command, [])]
        readers = {"--digits": {"norm"}, "--oracle-cap": {"norm", "enumerate-norming", "witness"}}
        plain = _run(capsys, argv)
        assert plain[0] == 0
        for flag, value in [("--digits", "12"), ("--oracle-cap", "13")]:
            if command in readers[flag]:
                assert _run(capsys, [*argv, flag, value]) == plain, flag
                continue
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, value])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, ""), flag
            assert captured.err.endswith(f"error: unrecognized arguments: {flag} {value}\n")

    def test_digits_message(self, vec_file, capsys):
        code, _, err = _run(capsys, ["norm", vec_file, "--digits", "1001"])
        assert code == 2
        assert json.loads(err)["error"]["message"] == "digits must be between 0 and 1000, got 1001"

    def test_long_digits_leave_a_short_error(self, vec_file, capsys):
        code, out, err = _run(capsys, ["norm", vec_file, "--digits", "1" * 4000])
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1000
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and error["message"].endswith("... (4000 characters)")

    @pytest.mark.parametrize("flag", ["--digits", "--oracle-cap"])
    def test_bad_int_flag(self, vec_file, capsys, flag):
        """argparse's own plain-text usage error, with a long value cut short."""
        for value, shown in [
            ("7x", "'7x'"),
            ("1_0", "'1_0'"),  # the grammar of vector values: no "_" and no non-ASCII digit
            ("1_3", "'1_3'"),
            (" \u0661\u0662 ", "' \u0661\u0662 '"),
            ("1" * 5000, "'" + "1" * 199 + "... (5002 characters)"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(["norm", vec_file, "--oracle", flag, value])
            err = capsys.readouterr().err
            assert exc.value.code == 2 and len(err.encode()) < 1000
            assert err.endswith(f"error: argument {flag}: invalid int value: {shown}\n")

    @pytest.mark.parametrize("text", [
        '{"vector": {"": "' + "1" * 100_000 + '"}}',
        '{"vector": {"": "' + "x" * 100_000 + '"}}',
        '{"vector": {"": "1e' + "1" * 99_998 + '"}}',
        '{"vector": {"' + "0" * 100_000 + '": "1"}}',
        '{"vector": {"' + "0" * 100_000 + '": "1", "' + "0" * 100_000 + '": "2"}}',
    ], ids=["digits", "literal", "exponent", "depth", "repeated-key"])
    def test_long_input_leaves_a_short_error(self, tmp_path, capsys, text):
        path = tmp_path / "long.json"
        path.write_text(text)
        code, out, err = _run(capsys, ["norm", str(path)])
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1000
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and "... (100002 characters)" in error["message"]

    @pytest.mark.parametrize("command, name", [(["norm"], "o.json"), (["dot"], "o.gv")])
    def test_unwritable_out(self, vec_file, tmp_path, capsys, command, name):
        target = tmp_path / "missing" / name
        code, out, err = _run(capsys, [command[0], vec_file, "--out", str(target)])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert error["message"].startswith(f"cannot write {target}: ")

    def test_short_path_echoed_whole(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, _, err = _run(capsys, ["norm", str(missing)])
        assert code == 2
        assert json.loads(err)["error"]["message"] == (
            f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"
        )

    @pytest.mark.parametrize("where", ["vector", "--partition", "--out"])
    def test_long_path_leaves_a_short_error(self, vec_file, tmp_path, capsys, where):
        path = str(tmp_path / ("a" * 5000))
        argv = {
            "vector": ["norm", path],
            "--partition": ["consistent", vec_file, "--partition", path],
            "--out": ["norm", vec_file, "--out", path],
        }[where]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1000
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and error["message"].endswith(" characters)")

    def test_exponent_value_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"vector": {"": "1e50"}}))
        code, _, err = _run(capsys, ["norm", str(path)])
        assert code == 2
        assert "exponent" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("value", ["1_000", "1/2_0", "1.5_0", "1 / 2", "1/ 2",
                                       "\u0661\u0662", "\uff11\uff12"])
    def test_separator_and_non_ascii_values_rejected(self, tmp_path, capsys, value):
        path = tmp_path / "sep.json"
        path.write_text(json.dumps({"vector": {"": value, "0": "1"}}))
        code, out, err = _run(capsys, ["norm", str(path)])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error == {"type": "InputError", "message":
                         f"'_', inner whitespace and non-ASCII characters are not accepted, got {value!r}"}

    @pytest.mark.parametrize("value, norm_sq", [("1000", "1000000"), ("1/20", "1/400"),
                                                ("1.50", "9/4"), (" -12 ", "144")])
    def test_ascii_values_unchanged(self, tmp_path, capsys, value, norm_sq):
        path = tmp_path / "ascii.json"
        path.write_text(json.dumps({"vector": {"": value}}))
        code, out, _ = _run(capsys, ["norm", str(path)])
        assert code == 0 and json.loads(out)["norm_sq"] == norm_sq

    @pytest.mark.parametrize(
        "entries, command",
        [
            ({"": "7" * 3000, "0": "1"}, ["norm"]),
            ({"": "7" * 3000, "0": "1"}, ["extreme"]),
            ({"": "7" * 3000, "0": "7" * 3000}, ["norm"]),
            ({"": "7" * 3000, "0": "7" * 3000}, ["gap", "--u", "", "--v", "0"]),
            ({"": "7" * 3000, "0": "7" * 3000}, ["extreme"]),
        ],
    )
    def test_result_past_the_digit_limit(self, tmp_path, capsys, entries, command):
        """Each input parses; a result past the interpreter's default
        4300-digit limit on integer text is an input error, not a crash."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            path = tmp_path / "huge.json"
            path.write_text(json.dumps({"vector": entries}))
            code, out, err = _run(capsys, [command[0], str(path), *command[1:]])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InputError"

    def test_oracle_disagreement_is_internal_error(self, vec_file, capsys, monkeypatch):
        from fractions import Fraction

        monkeypatch.setattr(cli_mod, "oracle_norm_sq", lambda x, cap=None: Fraction(6))
        code, _, err = _run(capsys, ["norm", vec_file, "--oracle"])
        assert code == 5
        assert json.loads(err)["error"]["type"] == "InternalError"

    @pytest.mark.parametrize(
        "doc, engine",
        [(EXAMPLE, "the heaviest-child walk"), ({"vector": {}}, "the heaviest-child walk"), (SIGNED, "the DP")],
        ids=["positive", "zero", "signed"],
    )
    def test_oracle_disagreement_names_the_engine(self, tmp_path, capsys, monkeypatch, doc, engine):
        """jt_norm_sq walks a positive vector and runs the DP on any other;
        the report names the one that gave the checked norm."""
        from fractions import Fraction

        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(cli_mod, "oracle_norm_sq", lambda x, cap=None: Fraction(6))
        norm_sq = jt_norm_sq(TreeVector.from_dict(doc["vector"])).norm_sq
        code, out, err = _run(capsys, ["norm", str(path), "--oracle"])
        assert code == 5 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InternalError"
        assert error["message"] == f"oracle disagrees with {engine}: 6 != {norm_sq}"


def _readme_session() -> list[tuple[str, str]]:
    """The (command, output) pairs of the shell session under "Example:" in README.md."""
    block = README.read_text().split("Example:\n\n```\n", 1)[1].split("```", 1)[0]
    return [chunk.partition("\n")[::2] for chunk in block.split("$ ")[1:]]


class TestReadme:
    def test_cli_example_output_is_exact(self, tmp_path, monkeypatch, capsys):
        session = _readme_session()
        assert [command for command, _ in session] == [
            "cat x.json", "jtx norm x.json", 'jtx gap x.json --u "" --v "0"'
        ]
        (tmp_path / "x.json").write_text(session[0][1])
        monkeypatch.chdir(tmp_path)
        for command, expected in session[1:]:
            assert _run(capsys, shlex.split(command)[1:]) == (0, expected, ""), command


def _fresh_process(
    argv: list[str], cwd: Path, stdin: bytes = b"", env: dict[str, str] | None = None
) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `jtx argv` in a new interpreter,
    fed the stdin bytes, with env added to the environment."""
    src = str(Path(cli_mod.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "jtx.cli", *argv],
        cwd=cwd, env={**os.environ, **(env or {}), "PYTHONPATH": src},
        input=stdin, capture_output=True, check=False,
    )
    return done.returncode, done.stdout.decode(), done.stderr.decode()


MIXED = {"vector": {
    "": "1/7", "00": "1/2", "000": "1/3", "01": "1/9", "1": "7/12", "10": "1/5", "11": "1/4",
}}
STRETCHES = {"vector": {
    "0": "2", "01111111111111111111111111111": "1", "1": "1", "100000000000000000000000000000": "-1",
}}


class TestFreshProcess:
    """The console checks of CI's fresh-process step, each in a new interpreter."""

    @pytest.mark.parametrize("env", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "latin-1"}],
                             ids=["c-locale", "latin-1"])
    def test_non_utf8_stdin(self, tmp_path, env):
        code, out, err = _fresh_process(["norm", "-"], tmp_path, b'{"x": "\xff", "vector": {"": "1"}}', env)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert error["message"].startswith("input is not UTF-8 text: ")

    def test_mixed_denominators_norm_and_oracle(self, tmp_path):
        (tmp_path / "mixed.json").write_text(json.dumps(MIXED))
        code, out, _ = _fresh_process(["norm", "mixed.json"], tmp_path)
        assert code == 0
        doc = json.loads(out)
        assert '"norm_sq": "337313/198450",' in out
        assert {"top": "", "bottom": "000"} in doc["witness"]["segments"]
        code, out, _ = _fresh_process(["norm", "mixed.json", "--oracle"], tmp_path)
        assert code == 0
        assert json.loads(out)["oracle_norm_sq"] == doc["norm_sq"] == "337313/198450"

    def test_stretches_not_extreme_nor_separated(self, tmp_path):
        (tmp_path / "stretches.json").write_text(json.dumps(STRETCHES))
        code, out, _ = _fresh_process(["extreme", "stretches.json"], tmp_path)
        assert (code, json.loads(out)["verdict"]) == (0, "not-extreme")
        code, out, _ = _fresh_process(["separated", "stretches.json"], tmp_path)
        assert (code, json.loads(out)["separated"]) == (0, False)


class TestParserReuse:
    """main() builds its parser once per process and keeps no state in it."""

    def test_parser_built_once(self, vec_file, capsys, monkeypatch):
        builds = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "jtx":
                builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli_mod._build_parser.cache_clear()  # start as a fresh process would
        for argv in (["norm", vec_file], ["gap", vec_file, "--u", "", "--v", "0"]) * 3:
            assert _run(capsys, argv)[0] == 0
        assert len(builds) == 1
        assert cli_mod._build_parser() is builds[0]

    @pytest.mark.parametrize("failing, code", [
        (["gap", "x.json", "--u", ""], 2),
        (["--help"], 0),
        (["gap", "--help"], 0),
    ], ids=["missing-flag", "help", "command-help"])
    def test_exit_then_good_call_matches_fresh_process(
        self, tmp_path, capsys, monkeypatch, failing, code
    ):
        (tmp_path / "x.json").write_text(json.dumps(EXAMPLE))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        good = ["gap", "x.json", "--u", "", "--v", "0"]
        expected = [_fresh_process(failing, tmp_path), _fresh_process(good, tmp_path)]
        assert expected[0][0] == code
        with pytest.raises(SystemExit) as exc:
            main(failing)
        captured = capsys.readouterr()
        got = [(exc.value.code, captured.out, captured.err), _run(capsys, good)]
        assert got == expected

    def test_golden_commands_in_reverse_order(self, monkeypatch):
        import test_cli_golden as golden_mod

        commands = golden_mod._commands
        monkeypatch.setattr(golden_mod, "VECTORS", dict(reversed(golden_mod.VECTORS.items())))
        monkeypatch.setattr(golden_mod, "_commands", lambda *a: commands(*a)[::-1])
        golden = json.loads(golden_mod.GOLDEN.read_text(encoding="utf-8"))
        assert golden_mod.documents() == golden
