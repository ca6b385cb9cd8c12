"""Tests for the dlog shell (__main__) and the plan explainer."""

import io
import sys

from repro.dlog import compile_program
from repro.dlog.__main__ import main

PROGRAM = """
input relation Edge(a: bigint, b: bigint)
input relation GivenLabel(n: bigint, l: string)
output relation Label(n: bigint, l: string)
output relation Count(l: string, n: bigint)
Label(n, l) :- GivenLabel(n, l).
Label(b, l) :- Label(a, l), Edge(a, b).
Count(l, n) :- Label(_, l), var n = Aggregate((l), count()).
"""


class TestExplain:
    def test_explain_mentions_strata_and_modes(self):
        text = compile_program(PROGRAM).explain()
        assert "recursive (DRed)" in text
        assert "dataflow" in text
        assert "Label" in text
        assert "aggregate(count)" in text

    def test_explain_names_layered_recursion(self):
        text = compile_program(
            "input relation Link(a: bigint, b: bigint)\n"
            "output relation Hop(a: bigint, b: bigint, n: bigint)\n"
            "Hop(a, b, 1) :- Link(a, b).\n"
            "Hop(a, c, n + 1) :- Hop(a, b, n), n < 4, Link(b, c)."
        ).explain()
        assert "[layered, depth 4]: Hop\n" in text
        assert "recursive (DRed)" not in text
        for k in (1, 2, 3, 4):
            assert f"[dataflow]: Hop@{k}\n" in text
        assert "    :- Hop@3, guard, Link\n" in text

    def test_explain_shows_rule_shapes(self):
        text = compile_program(
            "input relation A(x: bigint)\n"
            "input relation B(x: bigint)\n"
            "output relation O(x: bigint)\n"
            "O(x) :- A(x), not B(x), x > 1."
        ).explain()
        assert "not B" in text
        assert "guard" in text


def run_cli(tmp_path, commands, program=PROGRAM):
    path = tmp_path / "prog.dl"
    path.write_text(program)
    stdin = sys.stdin
    stdout = sys.stdout
    sys.stdin = io.StringIO("\n".join(commands) + "\n")
    sys.stdout = io.StringIO()
    try:
        code = main([str(path)])
        output = sys.stdout.getvalue()
    finally:
        sys.stdin = stdin
        sys.stdout = stdout
    return code, output


class TestShell:
    def test_insert_prints_deltas(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            ['+ GivenLabel (1, "x")', "+ Edge (1, 2)", "quit"],
        )
        assert code == 0
        assert "+ Label(1, 'x')" in out
        assert "+ Label(2, 'x')" in out

    def test_delete_prints_retraction(self, tmp_path):
        code, out = run_cli(
            tmp_path,
            ['+ GivenLabel (1, "x")', '- GivenLabel (1, "x")', "quit"],
        )
        assert "- Label(1, 'x')" in out

    def test_dump(self, tmp_path):
        code, out = run_cli(
            tmp_path, ['+ GivenLabel (1, "x")', "dump Label", "quit"]
        )
        assert "Label(1, 'x')" in out

    def test_unknown_command_is_friendly(self, tmp_path):
        code, out = run_cli(tmp_path, ["frobnicate", "quit"])
        assert code == 0
        assert "unknown command" in out

    def test_bad_row_reports_error(self, tmp_path):
        code, out = run_cli(tmp_path, ["+ Edge (1, 'not-an-int')", "quit"])
        assert "error:" in out

    def test_explain_and_profile_commands(self, tmp_path):
        code, out = run_cli(tmp_path, ["explain", "profile", "quit"])
        assert "stratum" in out
        assert "transactions" in out

    def test_bad_program_file(self, tmp_path, capsys):
        path = tmp_path / "bad.dl"
        path.write_text("input relation (")
        assert main([str(path)]) == 1

    def test_missing_args_shows_usage(self, capsys):
        assert main([]) == 2
