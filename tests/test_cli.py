from __future__ import annotations

import resource
import subprocess
import sys
from types import SimpleNamespace

import pytest

from spanlab import cli, families, verify
from spanlab.cli import main
from spanlab.families import named_graph, paramecium_graph
from spanlab.io import emit_edge_list, emit_graph6, parse_graph6

from conftest import decode_graph6_by_strings


@pytest.fixture
def pc5_file(tmp_path):
    path = tmp_path / "pc5.txt"
    path.write_text(emit_edge_list(paramecium_graph(5)))
    return str(path)


@pytest.fixture
def write_graph(tmp_path):
    def _write(g, name="g.txt", fmt="edgelist"):
        path = tmp_path / name
        if fmt == "graph6":
            path.write_text(emit_graph6(g) + "\n")
        else:
            path.write_text(emit_edge_list(g))
        return str(path)

    return _write


def _limit_address_space():
    limit = 3 << 29  # 1.5 GiB, so a runaway allocation fails fast
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_cli(*argv, timeout, capped=False):
    """``python -m spanlab.cli *argv`` in a subprocess, so the real console
    prints what it quotes back; ``capped`` bounds its address space."""
    return subprocess.run(
        [sys.executable, "-m", "spanlab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_limit_address_space if capped else None,
    )


def assert_error(result, code, capsys=None):
    """The documented error shape: exit ``code``, nothing on stdout and one
    stderr line that starts with ``spanlab: ``.  ``result`` is a finished
    subprocess, or the code ``main()`` returned, read with ``capsys``.
    Returns the stderr line."""
    if capsys is None:
        returned, out, err = result.returncode, result.stdout, result.stderr
    else:
        (out, err), returned = capsys.readouterr(), result
    assert (returned, out) == (code, ""), err
    assert err.startswith("spanlab: ") and err.count("\n") == 1, err
    return err


class TestSpan:
    def test_pc5_all_rules(self, pc5_file, capsys):
        assert main(["span", pc5_file]) == 0
        assert capsys.readouterr().out == "rad=3 strong=3 direct=2 cartesian=3\n"

    def test_k2_cartesian_is_zero(self, tmp_path, capsys):
        path = tmp_path / "k2.txt"
        path.write_text("n 2\n0 1\n")
        assert main(["span", str(path), "--rule", "cartesian"]) == 0
        assert capsys.readouterr().out == "rad=1 cartesian=0\n"

    def test_q3_graph6(self, write_graph, capsys):
        from spanlab.families import hypercube_graph

        path = write_graph(hypercube_graph(3), "q3.g6", fmt="graph6")
        assert main(["span", path]) == 0
        assert capsys.readouterr().out == "rad=3 strong=3 direct=3 cartesian=2\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("nope\n")
        assert "line 1" in assert_error(main(["span", str(path)]), 2, capsys)

    def test_disconnected_exits_3(self, tmp_path, capsys):
        path = tmp_path / "disc.txt"
        path.write_text("n 4\n0 1\n2 3\n")
        assert_error(main(["span", str(path)]), 3, capsys)

    @pytest.mark.parametrize("command", ["span", "bounds"])
    def test_order_over_cap_exits_4(self, command, tmp_path):
        # A subprocess with a timeout and a bounded address space: the
        # header alone used to make Graph allocate a list of 10**11 entries
        # and die with a MemoryError traceback.
        path = tmp_path / "huge.txt"
        path.write_text("n 99999999999\n")
        assert_error(run_cli(command, str(path), timeout=20, capped=True), 4)

    def test_graph6_header_over_cap_exits_4(self, tmp_path):
        # "~?_@" is a long-form header naming order 2049, one over the cap;
        # it exits 4 before the missing body is looked at.
        path = tmp_path / "huge.g6"
        path.write_text("~?_@\n")
        assert_error(run_cli("span", str(path), timeout=20, capped=True), 4)

    @pytest.mark.parametrize(
        "text,line,token",
        [
            ("n 1_0\n" + "".join(f"{v} {v + 1}\n" for v in range(9)), 1, "'1_0'"),
            ("n +2\n0 1\n", 1, "'+2'"),
            ("n ３\n0 1\n1 2\n", 1, "'３'"),
            ("n 2\n+0 1\n", 2, "'+0'"),
            ("n 2\n0 -1\n", 2, "'-1'"),
            ("n 2\n0 ١\n", 2, "'١'"),
        ],
        ids=["underscore", "plus-count", "full-width", "plus-id", "minus-id", "arabic-indic"],
    )
    def test_edge_list_numbers_are_ascii_digits(self, tmp_path, text, line, token):
        # int() reads all of these; the format has plain decimal numerals.
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        err = assert_error(run_cli("span", str(path), timeout=20), 2)
        assert f"line {line}: bad vertex " in err
        assert err.rstrip().endswith(token)

    @pytest.mark.parametrize(
        "token",
        ["P\u0663", "K\uff12_3", "\u017f4", "\u212a5"],
        ids=["arabic-indic", "full-width", "long-s", "kelvin-sign"],
    )
    def test_family_tokens_are_ascii(self, token):
        # Read case-blind, \d and [a-z] also took these as P3, K2,3, S4 and K5.
        err = assert_error(run_cli("named", token, timeout=20), 2)
        assert err.startswith(f"spanlab: unknown graph {token!r}; ")

    def test_edge_list_numbers_allow_leading_zeros(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 0003\n00 01\n1 002\n")
        proc = run_cli("span", str(path), timeout=20)
        assert (proc.returncode, proc.stdout) == (0, "rad=1 strong=1 direct=1 cartesian=0\n")

    def test_long_vertex_count_exits_4_with_a_short_line(self, tmp_path):
        # This used to exit 2: int() refuses numerals over 4,300 digits,
        # and the whole numeral was quoted back.
        path = tmp_path / "huge.txt"
        path.write_text(f"n {'9' * 5000}\n")
        err = assert_error(run_cli("span", str(path), timeout=20, capped=True), 4)
        assert len(err) < len(str(path)) + 120

    def test_long_vertex_id_exits_2_with_a_short_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(f"n 2\n0 {'9' * 5000}\n")
        err = assert_error(run_cli("span", str(path), timeout=20), 2)
        assert "line 2: vertex id '999" in err
        assert len(err) < len(str(path)) + 120

    @pytest.mark.parametrize("command", [["span"], ["witness", "--rule", "strong"], ["bounds"]])
    def test_non_utf8_file_exits_2(self, command, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"n 2\n0 1 # caf\xe9\n")
        err = assert_error(run_cli(command[0], str(path), *command[1:], timeout=20), 2)
        assert err.startswith("spanlab: cannot read")

    def test_missing_file_exits_2(self, capsys):
        assert "cannot read" in assert_error(main(["span", "/nonexistent/x.txt"]), 2, capsys)

    def test_format_override_mismatch_exits_2(self, pc5_file, capsys):
        assert_error(main(["span", pc5_file, "--format", "graph6"]), 2, capsys)


# The walks of ``spanlab witness`` on fig1, pinned so that any change to
# the witness walk shows up as a diff: the step table (stderr), then the
# moves of the DOT text (stdout), which follow FIG1_DOT_HEAD.
FIG1_DOT_HEAD = """digraph witness {
  0;
  1;
  2;
  3;
  4;
  5;
  0 -> 1 [dir=none];
  0 -> 5 [dir=none];
  1 -> 2 [dir=none];
  1 -> 3 [dir=none];
  2 -> 3 [dir=none];
  2 -> 5 [dir=none];
  3 -> 4 [dir=none];
  4 -> 5 [dir=none];
"""

FIG1_WITNESS = {
    "strong": (
        """step alice   bob distance
   1     0     4        2
   2     1     5        2
   3     2     0        2
   4     5     1        2
   5     4     2        2
   6     3     5        2
   7     1     4        2
   8     0     3        2
""",
        """  0 -> 1 [color=red, label="f1"];
  1 -> 2 [color=red, label="f2"];
  2 -> 5 [color=red, label="f3"];
  5 -> 4 [color=red, label="f4"];
  4 -> 3 [color=red, label="f5"];
  3 -> 1 [color=red, label="f6"];
  1 -> 0 [color=red, label="f7"];
  4 -> 5 [color=blue, label="g1"];
  5 -> 0 [color=blue, label="g2"];
  0 -> 1 [color=blue, label="g3"];
  1 -> 2 [color=blue, label="g4"];
  2 -> 5 [color=blue, label="g5"];
  5 -> 4 [color=blue, label="g6"];
  4 -> 3 [color=blue, label="g7"];
}
""",
    ),
    "direct": (
        """step alice   bob distance
   1     0     4        2
   2     1     5        2
   3     2     0        2
   4     5     1        2
   5     4     2        2
   6     3     5        2
   7     1     4        2
   8     0     3        2
""",
        """  0 -> 1 [color=red, label="f1"];
  1 -> 2 [color=red, label="f2"];
  2 -> 5 [color=red, label="f3"];
  5 -> 4 [color=red, label="f4"];
  4 -> 3 [color=red, label="f5"];
  3 -> 1 [color=red, label="f6"];
  1 -> 0 [color=red, label="f7"];
  4 -> 5 [color=blue, label="g1"];
  5 -> 0 [color=blue, label="g2"];
  0 -> 1 [color=blue, label="g3"];
  1 -> 2 [color=blue, label="g4"];
  2 -> 5 [color=blue, label="g5"];
  5 -> 4 [color=blue, label="g6"];
  4 -> 3 [color=blue, label="g7"];
}
""",
    ),
    "cartesian": (
        """step alice   bob distance
   1     0     4        2
   2     0     3        2
   3     0     2        2
   4     0     3        2
   5     5     3        2
   6     5     1        2
   7     4     1        2
   8     4     0        2
   9     3     0        2
  10     2     0        2
  11     3     0        2
  12     3     5        2
  13     1     5        2
""",
        """  0 -> 5 [color=red, label="f4"];
  5 -> 4 [color=red, label="f6"];
  4 -> 3 [color=red, label="f8"];
  3 -> 2 [color=red, label="f9"];
  2 -> 3 [color=red, label="f10"];
  3 -> 1 [color=red, label="f12"];
  4 -> 3 [color=blue, label="g1"];
  3 -> 2 [color=blue, label="g2"];
  2 -> 3 [color=blue, label="g3"];
  3 -> 1 [color=blue, label="g5"];
  1 -> 0 [color=blue, label="g7"];
  0 -> 5 [color=blue, label="g11"];
}
""",
    ),
}


class TestWitness:
    @pytest.mark.parametrize("rule", sorted(FIG1_WITNESS))
    def test_fig1_golden_output(self, rule, write_graph, capsys):
        path = write_graph(named_graph("fig1"), "fig1.txt")
        assert main(["witness", path, "--rule", rule]) == 0
        out, err = capsys.readouterr()
        table, moves = FIG1_WITNESS[rule]
        assert err == table
        assert out == FIG1_DOT_HEAD + moves

    def test_fig1_strong_table_and_dot(self, write_graph, capsys):
        path = write_graph(named_graph("fig1"), "fig1.txt")
        assert main(["witness", path, "--rule", "strong"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("digraph witness {")
        rows = [line.split() for line in err.strip().splitlines()[1:]]
        assert all(int(row[3]) >= 2 for row in rows)

    def test_k1_single_row(self, write_graph, capsys):
        from spanlab.graph import Graph

        path = write_graph(Graph(1, []), "k1.txt")
        assert main(["witness", path, "--rule", "cartesian"]) == 0
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert len(lines) == 2  # header + one row
        assert lines[1].split() == ["1", "0", "0", "0"]

    def test_bt3_cartesian_distance_floor(self, write_graph, capsys):
        from spanlab.families import binary_tree_graph

        path = write_graph(binary_tree_graph(3), "bt3.txt")
        assert main(["witness", path, "--rule", "cartesian"]) == 0
        _, err = capsys.readouterr()
        rows = [line.split() for line in err.strip().splitlines()[1:]]
        assert all(int(row[3]) >= 2 for row in rows)

    def test_deterministic_output(self, pc5_file, capsys):
        main(["witness", pc5_file, "--rule", "direct"])
        first = capsys.readouterr()
        main(["witness", pc5_file, "--rule", "direct"])
        second = capsys.readouterr()
        assert first.out == second.out and first.err == second.err


# The full ``spanlab families`` sweep, pinned so that any change to a
# family's generator, closed form, sweep range or display name shows up
# as a diff.
FAMILIES_DEFAULT = """\
P_2       rad=1  strong=1/1 direct=1/1 cartesian=0/0 PASS
P_3       rad=1  strong=1/1 direct=1/1 cartesian=0/0 PASS
P_4       rad=2  strong=1/1 direct=1/1 cartesian=0/0 PASS
P_5       rad=2  strong=1/1 direct=1/1 cartesian=0/0 PASS
P_6       rad=3  strong=1/1 direct=1/1 cartesian=0/0 PASS
P_7       rad=3  strong=1/1 direct=1/1 cartesian=0/0 PASS
P_8       rad=4  strong=1/1 direct=1/1 cartesian=0/0 PASS
P_9       rad=4  strong=1/1 direct=1/1 cartesian=0/0 PASS
P_10      rad=5  strong=1/1 direct=1/1 cartesian=0/0 PASS
C_3       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
C_4       rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
C_5       rad=2  strong=2/2 direct=2/2 cartesian=2/2 PASS
C_6       rad=3  strong=3/3 direct=3/3 cartesian=2/2 PASS
C_7       rad=3  strong=3/3 direct=3/3 cartesian=3/3 PASS
C_8       rad=4  strong=4/4 direct=4/4 cartesian=3/3 PASS
C_9       rad=4  strong=4/4 direct=4/4 cartesian=4/4 PASS
C_10      rad=5  strong=5/5 direct=5/5 cartesian=4/4 PASS
Q_2       rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
Q_3       rad=3  strong=3/3 direct=3/3 cartesian=2/2 PASS
Q_4       rad=4  strong=4/4 direct=4/4 cartesian=3/3 PASS
K_{2,2}   rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
K_{2,3}   rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
K_{2,4}   rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
K_{3,2}   rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
K_{3,3}   rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
K_{3,4}   rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
K_{4,2}   rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
K_{4,3}   rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
K_{4,4}   rad=2  strong=2/2 direct=2/2 cartesian=1/1 PASS
K_3       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
K_4       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
K_5       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
K_6       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
K_7       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
K_8       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
S_4       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
S_5       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
S_6       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
S_7       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
S_8       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
W_4       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
W_5       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
W_6       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
W_7       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
W_8       rad=1  strong=1/1 direct=1/1 cartesian=1/1 PASS
PC_3      rad=2  strong=2/2 direct=1/1 cartesian=2/2 PASS
PC_4      rad=3  strong=2/2 direct=2/2 cartesian=2/2 PASS
PC_5      rad=3  strong=3/3 direct=2/2 cartesian=3/3 PASS
PC_6      rad=4  strong=3/3 direct=3/3 cartesian=3/3 PASS
PC_7      rad=4  strong=4/4 direct=3/3 cartesian=4/4 PASS
PC_8      rad=5  strong=4/4 direct=4/4 cartesian=4/4 PASS
PC_9      rad=5  strong=5/5 direct=4/4 cartesian=5/5 PASS
BT_1      rad=1  strong=1/1 direct=1/1 cartesian=0/0 PASS
BT_2      rad=2  strong=1/1 direct=1/1 cartesian=1/1 PASS
BT_3      rad=3  strong=2/2 direct=2/2 cartesian=2/2 PASS
BT_4      rad=4  strong=3/3 direct=3/3 cartesian=3/3 PASS
PASS 56/56 rows match
"""

FAMILIES_MACHINE = """\
family=P_2 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=P_3 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=P_4 radius=2 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=P_5 radius=2 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=P_6 radius=3 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=P_7 radius=3 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=P_8 radius=4 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=P_9 radius=4 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=P_10 radius=5 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=C_3 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=C_4 radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=C_5 radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=2 cartesian_expected=2 pass=1
family=C_6 radius=3 strong=3 strong_expected=3 direct=3 direct_expected=3 cartesian=2 cartesian_expected=2 pass=1
family=C_7 radius=3 strong=3 strong_expected=3 direct=3 direct_expected=3 cartesian=3 cartesian_expected=3 pass=1
family=C_8 radius=4 strong=4 strong_expected=4 direct=4 direct_expected=4 cartesian=3 cartesian_expected=3 pass=1
family=C_9 radius=4 strong=4 strong_expected=4 direct=4 direct_expected=4 cartesian=4 cartesian_expected=4 pass=1
family=C_10 radius=5 strong=5 strong_expected=5 direct=5 direct_expected=5 cartesian=4 cartesian_expected=4 pass=1
family=Q_2 radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=Q_3 radius=3 strong=3 strong_expected=3 direct=3 direct_expected=3 cartesian=2 cartesian_expected=2 pass=1
family=Q_4 radius=4 strong=4 strong_expected=4 direct=4 direct_expected=4 cartesian=3 cartesian_expected=3 pass=1
family=K_{2,2} radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=K_{2,3} radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=K_{2,4} radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=K_{3,2} radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=K_{3,3} radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=K_{3,4} radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=K_{4,2} radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=K_{4,3} radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=K_{4,4} radius=2 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=1 cartesian_expected=1 pass=1
family=K_3 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=K_4 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=K_5 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=K_6 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=K_7 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=K_8 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=S_4 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=S_5 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=S_6 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=S_7 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=S_8 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=W_4 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=W_5 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=W_6 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=W_7 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=W_8 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=PC_3 radius=2 strong=2 strong_expected=2 direct=1 direct_expected=1 cartesian=2 cartesian_expected=2 pass=1
family=PC_4 radius=3 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=2 cartesian_expected=2 pass=1
family=PC_5 radius=3 strong=3 strong_expected=3 direct=2 direct_expected=2 cartesian=3 cartesian_expected=3 pass=1
family=PC_6 radius=4 strong=3 strong_expected=3 direct=3 direct_expected=3 cartesian=3 cartesian_expected=3 pass=1
family=PC_7 radius=4 strong=4 strong_expected=4 direct=3 direct_expected=3 cartesian=4 cartesian_expected=4 pass=1
family=PC_8 radius=5 strong=4 strong_expected=4 direct=4 direct_expected=4 cartesian=4 cartesian_expected=4 pass=1
family=PC_9 radius=5 strong=5 strong_expected=5 direct=4 direct_expected=4 cartesian=5 cartesian_expected=5 pass=1
family=BT_1 radius=1 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=0 cartesian_expected=0 pass=1
family=BT_2 radius=2 strong=1 strong_expected=1 direct=1 direct_expected=1 cartesian=1 cartesian_expected=1 pass=1
family=BT_3 radius=3 strong=2 strong_expected=2 direct=2 direct_expected=2 cartesian=2 cartesian_expected=2 pass=1
family=BT_4 radius=4 strong=3 strong_expected=3 direct=3 direct_expected=3 cartesian=3 cartesian_expected=3 pass=1
PASS 56/56 rows match
"""


class TestFamilies:
    def test_default_sweep_pinned(self, capsys):
        assert main(["families"]) == 0
        assert capsys.readouterr().out == FAMILIES_DEFAULT

    def test_machine_sweep_pinned(self, capsys):
        assert main(["families", "--machine"]) == 0
        assert capsys.readouterr().out == FAMILIES_MACHINE

    def test_cap_option_is_refused(self, capsys):
        # The family table alone sets the sweep; no option caps it.
        with pytest.raises(SystemExit) as exc:
            main(["families", "--max-path", "3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --max-path 3" in err

    def test_added_family_row_gets_rows(self, monkeypatch, capsys):
        line = families._FAMILIES["path"]._replace(token="L", sweep_top=4)
        monkeypatch.setitem(families._FAMILIES, "line", line)
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "L_2 " in out and "L_4 " in out and "L_5 " not in out
        assert out.endswith("PASS 59/59 rows match\n")
        assert main(["families", "--machine"]) == 0
        assert "family=L_4 " in capsys.readouterr().out


class TestVerifyCommands:
    def test_enumerate_n4(self, capsys):
        assert main(["verify-enumerate", "--n", "4", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "graphs checked: 38" in out
        assert "0 counterexamples; 0 graphs with cartesian>direct" in out

    def test_enumerate_dedup_n5(self, capsys):
        assert main(["verify-enumerate", "--n", "5", "--dedup", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "graphs checked: 21" in out
        assert "0 counterexamples; 0 graphs with cartesian>direct" in out

    def test_enumerate_too_large_exits_4(self, capsys):
        assert_error(main(["verify-enumerate", "--n", "9"]), 4, capsys)

    def test_records_file(self, tmp_path, capsys):
        records = tmp_path / "records.txt"
        assert (
            main(["verify-enumerate", "--n", "3", "--jobs", "1", "--records", str(records)])
            == 0
        )
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("graph6=") for line in lines)

    def test_empty_sweep_writes_empty_records_file(self, tmp_path, capsys):
        # No record, no line: a blank line is not a record.
        records = tmp_path / "records.txt"
        assert main(["verify-random", "--count", "0", "--records", str(records)]) == 0
        assert records.read_bytes() == b""
        assert "graphs checked: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["verify-enumerate", "--n", "3"], ["verify-random", "--count", "3"]])
    @pytest.mark.parametrize("target", ["missing/records.txt", "."])
    def test_unwritable_records_exits_2_before_sweep(self, command, target, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(verify, "check_theorems", fail)
        err = assert_error(main([*command, "--records", str(tmp_path / target)]), 2, capsys)
        assert err.startswith("spanlab: cannot write")

    def test_random_small(self, capsys):
        assert (
            main(
                ["verify-random", "--count", "20", "--seed", "9",
                 "--n-min", "4", "--n-max", "7", "--jobs", "1"]
            )
            == 0
        )
        assert "graphs checked: 20" in capsys.readouterr().out

    def test_enumerate_order_zero_exits_2(self, capsys):
        assert_error(main(["verify-enumerate", "--n", "0"]), 2, capsys)

    @pytest.mark.parametrize("n_range", [("0", "6"), ("8", "6")])
    def test_random_bad_vertex_range_exits_2(self, n_range, capsys):
        n_min, n_max = n_range
        assert_error(main(["verify-random", "--n-min", n_min, "--n-max", n_max]), 2, capsys)

    @pytest.mark.parametrize("p", ["0", "-0.5", "nan"])
    def test_random_edge_probability_outside_unit_interval_exits_2(self, p):
        # A subprocess with a timeout, so a draw that resamples forever
        # fails the test instead of hanging the suite.
        assert_error(run_cli("verify-random", "--count", "3", "--p", p, timeout=30), 2)

    def test_random_long_form_graph6_orders(self, tmp_path):
        # Orders 63 and 64 need the long graph6 form in their records; the
        # short form's 62-vertex cap used to end the run with exit 4.
        records = tmp_path / "records.txt"
        proc = run_cli("verify-random", "--count", "2", "--n-min", "63", "--n-max", "64",
                       "--jobs", "1", "--records", str(records), timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = records.read_text().splitlines()
        assert len(lines) == 2
        sixes = [line.split()[0].removeprefix("graph6=") for line in lines]
        assert all(six.startswith("~") for six in sixes)
        assert {parse_graph6(six).n for six in sixes} <= {63, 64}

    def test_random_order_over_cap_exits_4(self):
        # A subprocess with a timeout and a bounded address space: the draw
        # of order 100,000 used to build about 1.5e9 edge tuples before
        # Graph refused the order.
        argv = ["verify-random", "--count", "1", "--n-min", "100000", "--n-max", "100000"]
        assert_error(run_cli(*argv, timeout=10, capped=True), 4)

    def test_random_negative_count_exits_2(self, capsys):
        assert_error(main(["verify-random", "--count", "-3"]), 2, capsys)

    def test_random_tiny_edge_probability_exits_2(self):
        # A connected draw of order 12 at p = 1e-6 almost never comes; the
        # resampling cap turns what was an endless loop into exit 2.
        argv = ["verify-random", "--count", "1", "--p", "1e-6", "--n-min", "12", "--n-max", "12"]
        assert_error(run_cli(*argv, timeout=60), 2)

    def test_random_large_order_below_connectivity_exits_2(self):
        # p = 0.001 lies below the ln(n) / n connectivity threshold of order
        # 2,048.  Each draw flips 2.1 M coins in about 0.2 s, so the 10,000
        # draws of the attempt cap alone took most of an hour; the flip
        # budget stops after 4 draws.
        argv = ["verify-random", "--count", "1", "--n-min", "2048", "--n-max", "2048", "--p", "0.001"]
        assert_error(run_cli(*argv, timeout=60), 2)

    def test_random_seed_env_override(self, tmp_path, capsys, monkeypatch):
        rec_a = tmp_path / "a.txt"
        rec_b = tmp_path / "b.txt"
        rec_c = tmp_path / "c.txt"
        args = ["verify-random", "--count", "5", "--n-min", "4", "--n-max", "6",
                "--jobs", "1", "--records"]
        monkeypatch.setenv("SPANLAB_SEED", "123")
        main(args + [str(rec_a), "--seed", "1"])
        main(args + [str(rec_b), "--seed", "2"])
        monkeypatch.delenv("SPANLAB_SEED")
        main(args + [str(rec_c), "--seed", "123"])
        capsys.readouterr()
        assert rec_a.read_text() == rec_b.read_text() == rec_c.read_text()

    def test_random_seed_env_not_an_integer_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SPANLAB_SEED", "1.5")
        err = assert_error(main(["verify-random", "--count", "1"]), 2, capsys)
        assert "SPANLAB_SEED must be an integer" in err


class TestBounds:
    def test_fig6_left(self, write_graph, capsys):
        path = write_graph(named_graph("fig6_left"), "l.txt")
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "radius bound: 2" in out
        assert "cut-edge bound: 1" in out
        assert "strong span: 1" in out

    def test_fig6_right(self, write_graph, capsys):
        path = write_graph(named_graph("fig6_right"), "r.txt")
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "radius bound: 3" in out
        assert "cut-edge bound: 4" in out

    def test_c8_no_bridge(self, write_graph, capsys):
        from spanlab.families import cycle_graph

        path = write_graph(cycle_graph(8), "c8.txt")
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "radius bound: 4" in out
        assert "cut-edge bound: no bridge" in out
        assert "strong span: 4" in out

    def test_p2_names_the_order_floor(self, write_graph, capsys):
        # P2's one edge is a bridge; the bound is not defined below 3
        # vertices, so "no bridge" would be false.
        from spanlab.families import path_graph

        path = write_graph(path_graph(2), "p2.txt")
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "cut-edge bound: needs at least 3 vertices" in out
        assert main(["bounds", path, "--machine"]) == 0
        assert capsys.readouterr().out == "radius=1 cut_bound=none strong=1 ok=1\n"

    def test_machine_output(self, write_graph, capsys):
        path = write_graph(named_graph("fig6_left"), "l.txt")
        assert main(["bounds", path, "--machine"]) == 0
        assert capsys.readouterr().out == "radius=2 cut_bound=1 strong=1 ok=1\n"

    def test_violated_bound_exits_1(self, write_graph, monkeypatch, capsys):
        # The span cannot beat a bound; a stand-in sweep that does must show.
        path = write_graph(named_graph("fig6_left"), "l.txt")
        monkeypatch.setattr(cli, "compute_span", lambda g, rule: SimpleNamespace(value=3))
        assert main(["bounds", path, "--machine"]) == 1
        out, err = capsys.readouterr()
        assert out == "radius=2 cut_bound=1 strong=3 ok=0\n"
        assert err == "bound violated by computed span\n"


# ``spanlab named --format graph6`` for one token per family, and the three
# spellings of the biclique token, pinned so that a change to a generator's
# vertex numbering shows up as a diff.
FAMILY_TOKEN_GRAPH6 = {
    "P5": "DhC",
    "C6": "EhEG",
    "Q3": "Gr`HOk",
    "K5": "D~{",
    "K3_4": "FFzf?",
    "K3,4": "FFzf?",
    "K3x4": "FFzf?",
    "S4": "Cs",
    "W5": "D|s",
    "PC5": "IheA@?OA?",
    "BT3": "NqO`?_OA?O?_@??_?O?",
}


class TestNamed:
    @pytest.mark.parametrize("token", sorted(FAMILY_TOKEN_GRAPH6))
    def test_family_token_graph6_pinned(self, token, capsys):
        assert main(["named", token, "--format", "graph6"]) == 0
        assert capsys.readouterr().out == FAMILY_TOKEN_GRAPH6[token] + "\n"

    @pytest.mark.parametrize(
        "token",
        # The last token is past int()'s 4,300-digit limit for strings.
        ["Q30", "K200000", "P20000", "K3_200000", "BT40",
         pytest.param("P" + "9" * 4400, id="P-4400-digits")],
    )
    def test_family_order_cap_exits_4(self, token):
        # A subprocess with a timeout and a bounded address space, so an
        # instance built before the cap is checked fails the test instead
        # of exhausting memory or hanging the suite.
        assert_error(run_cli("named", token, timeout=20, capped=True), 4)

    def test_list(self, capsys):
        assert main(["named", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "fig7_h" in out

    def test_figure_id_edgelist(self, capsys):
        assert main(["named", "fig2_g1"]) == 0
        assert capsys.readouterr().out == "n 2\n0 1\n"

    def test_family_token_graph6(self, capsys):
        assert main(["named", "C5", "--format", "graph6"]) == 0
        line = capsys.readouterr().out.strip()
        n, edges = decode_graph6_by_strings(line)
        assert n == 5 and len(edges) == 5

    def test_biclique_token(self, capsys):
        assert main(["named", "K2_3"]) == 0
        assert capsys.readouterr().out.startswith("n 5\n")

    def test_unknown_exits_2(self, capsys):
        assert "unknown graph" in assert_error(main(["named", "fig99"]), 2, capsys)

    def test_unmatched_token_exits_2(self, capsys):
        # No family token has a sign in it.
        assert "unknown graph" in assert_error(main(["named", "C-5"]), 2, capsys)

    def test_unknown_long_token_message_is_bounded(self, capsys):
        err = assert_error(main(["named", "Z" + "1" * 4400]), 2, capsys)
        assert "unknown graph" in err and len(err.rstrip()) < 200

    def test_bad_parameter_exits_2(self, capsys):
        assert_error(main(["named", "C2"]), 2, capsys)

    def test_missing_id_exits_2(self, capsys):
        assert "a graph id is required" in assert_error(main(["named"]), 2, capsys)


def test_console_entry_point_runs():
    proc = run_cli("named", "fig2_g1", timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "n 2\n0 1\n")


def test_pipeline_named_into_span(tmp_path, capsys):
    assert main(["named", "PC5"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "pc5.txt"
    path.write_text(text)
    assert main(["span", str(path)]) == 0
    assert capsys.readouterr().out == "rad=3 strong=3 direct=2 cartesian=3\n"
