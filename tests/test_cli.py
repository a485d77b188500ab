from __future__ import annotations

import subprocess
import sys

import pytest

from spanlab.cli import main
from spanlab.families import named_graph, paramecium_graph
from spanlab.io import emit_edge_list, emit_graph6

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
        assert main(["span", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_disconnected_exits_3(self, tmp_path, capsys):
        path = tmp_path / "disc.txt"
        path.write_text("n 4\n0 1\n2 3\n")
        assert main(["span", str(path)]) == 3
        assert capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["span", "/nonexistent/x.txt"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_format_override_mismatch_exits_2(self, pc5_file, capsys):
        assert main(["span", pc5_file, "--format", "graph6"]) == 2
        assert capsys.readouterr().err


class TestWitness:
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


class TestFamilies:
    def test_reduced_sweep_passes(self, capsys):
        code = main(
            [
                "families",
                "--max-path", "6",
                "--max-cycle", "6",
                "--max-hypercube", "3",
                "--max-biclique", "3",
                "--max-complete", "5",
                "--max-paramecium", "5",
                "--max-tree-height", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("rows match")
        assert "FAIL" not in out
        assert "C_6" in out and "PC_5" in out

    def test_machine_rows(self, capsys):
        main(["families", "--max-path", "3", "--max-cycle", "3", "--max-hypercube", "2",
              "--max-biclique", "2", "--max-complete", "3", "--max-paramecium", "3",
              "--max-tree-height", "1", "--machine"])
        out = capsys.readouterr().out
        assert "family=P_2" in out and "pass=1" in out


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
        assert main(["verify-enumerate", "--n", "9"]) == 4
        assert capsys.readouterr().err

    def test_records_file(self, tmp_path, capsys):
        records = tmp_path / "records.txt"
        assert (
            main(["verify-enumerate", "--n", "3", "--jobs", "1", "--records", str(records)])
            == 0
        )
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("graph6=") for line in lines)

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
        assert main(["verify-enumerate", "--n", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spanlab: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n_range", [("0", "6"), ("8", "6")])
    def test_random_bad_vertex_range_exits_2(self, n_range, capsys):
        n_min, n_max = n_range
        assert main(["verify-random", "--n-min", n_min, "--n-max", n_max]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spanlab: ") and err.count("\n") == 1

    @pytest.mark.parametrize("p", ["0", "-0.5", "nan"])
    def test_random_edge_probability_outside_unit_interval_exits_2(self, p):
        # A subprocess with a timeout, so a draw that resamples forever
        # fails the test instead of hanging the suite.
        proc = subprocess.run(
            [sys.executable, "-m", "spanlab.cli", "verify-random", "--count", "3", "--p", p],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("spanlab: ") and proc.stderr.count("\n") == 1

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

    def test_machine_output(self, write_graph, capsys):
        path = write_graph(named_graph("fig6_left"), "l.txt")
        assert main(["bounds", path, "--machine"]) == 0
        assert capsys.readouterr().out == "radius=2 cut_bound=1 strong=1 ok=1\n"


class TestNamed:
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
        assert main(["named", "fig99"]) == 2
        assert "unknown graph" in capsys.readouterr().err

    def test_bad_parameter_exits_2(self, capsys):
        assert main(["named", "C2"]) == 2
        assert capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spanlab.cli", "named", "fig2_g1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n 2\n0 1\n"


def test_pipeline_named_into_span(tmp_path, capsys):
    assert main(["named", "PC5"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "pc5.txt"
    path.write_text(text)
    assert main(["span", str(path)]) == 0
    assert capsys.readouterr().out == "rad=3 strong=3 direct=2 cartesian=3\n"
