"""Golden CLI documents: every command's bytes stay exactly as recorded.

Claims:
    - for four fixed vectors (the README example, the separated
      counterexample e_root/4 + e_1 + e_00, a signed, non-separated
      forest, and a sparse positive chain of depth 29 that branches at
      depth 16, whose gap and witness pairs are edges inside support-free
      stretches), and a positive vector with mixed denominators whose
      heaviest children tie across denominators and depths (S = 1/2 + 1/3
      at "00", 7/12 + 1/4 at "1"), so that the canonical order of a tie
      set is not the lexicographic one, and whose `consistent` partition
      bypasses a heaviest child twice, all 11 commands print the recorded exit code, stdout
      and stderr bytes, and `dot` writes the recorded DOT text

The documents live in cli_golden.json next to this file. A change that
is meant to alter an output rewrites them with

    PYTHONPATH=src python3 tests/test_cli_golden.py --write

and shows the difference in its diff; a change that is not meant to
alter any output leaves the file untouched.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from jtx.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
OUT = "<out>"  # stands in for the --out path, which differs per run

# name: (vector, gap pair, witness pair, partition for `consistent`)
VECTORS = {
    "readme-example": (
        {"": "1", "00": "1", "01": "1"},
        ("", "0"),
        ("", "0"),
        [("", "00"), ("01", "01")],
    ),
    "separated-counterexample": (
        {"": "1/4", "1": "1", "00": "1"},
        ("", "0"),
        ("", "1"),
        [("", "00"), ("1", "1")],
    ),
    "signed-forest": (
        {"00": "1", "000": "-2", "01": "2", "1": "1", "100": "1", "101": "3"},
        ("1", "10"),
        ("1", "10"),
        [("00", "000"), ("01", "01"), ("1", "101")],
    ),
    "sparse-branching-chain": (
        {
            "": "1",
            "011010011101": "2",
            "01101001110101100110": "1",
            "011010011101011001101001": "1",
            "01101001110101101011001010110": "3",
        },
        ("01101001110101", "011010011101011"),
        ("0110", "01101"),
        [("", "01101001110101101011001010110"),
         ("01101001110101100110", "011010011101011001101001")],
    ),
    "mixed-denominator-ties": (
        {"": "1/7", "00": "1/2", "000": "1/3", "01": "1/9", "1": "7/12", "10": "1/5", "11": "1/4"},
        ("", "1"),
        ("", "00"),
        [("", "01"), ("00", "000"), ("1", "10"), ("11", "11")],
    ),
}


def _commands(vec: str, part: str, gv: str, gap: tuple, witness: tuple) -> list[list[str]]:
    return [
        ["norm", vec, "--oracle"],
        ["gap", vec, "--u", gap[0], "--v", gap[1]],
        ["separated", vec, "--all-pairs"],
        ["extreme", vec],
        ["greedy", vec],
        ["consistent", vec, "--partition", part],
        ["equal-sums", vec],
        ["enumerate-norming", vec],
        ["isolatable", vec],
        ["witness", vec, "--u", witness[0], "--v", witness[1]],
        ["dot", vec, "--out", gv],
    ]


def documents() -> dict:
    """Run every command on every vector; return {name/command: record}."""
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (values, gap, witness, segments) in VECTORS.items():
            vec = os.path.join(tmp, f"{name}.json")
            part = os.path.join(tmp, f"{name}-partition.json")
            gv = os.path.join(tmp, f"{name}.gv")
            with open(vec, "w", encoding="utf-8") as fh:
                json.dump({"vector": values}, fh)
            with open(part, "w", encoding="utf-8") as fh:
                json.dump({"segments": [{"top": t, "bottom": b} for t, b in segments]}, fh)
            for argv in _commands(vec, part, gv, gap, witness):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                record = {
                    "exit": code,
                    "stdout": stdout.getvalue().replace(gv, OUT),
                    "stderr": stderr.getvalue(),
                }
                if argv[0] == "dot":
                    with open(gv, encoding="utf-8") as fh:
                        record["dot"] = fh.read()
                out[f"{name}/{argv[0]}"] = record
    return out


def test_cli_documents_match_golden(monkeypatch):
    monkeypatch.delenv("JTX_ORACLE_CAP", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = documents()
    assert sorted(current) == sorted(golden)
    for key, record in golden.items():
        assert current[key] == record, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_cli_golden.py --write")
    os.environ.pop("JTX_ORACLE_CAP", None)
    GOLDEN.write_text(json.dumps(documents(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
