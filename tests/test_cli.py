"""Command-line interface: every subcommand plus the exit-code contract."""

from fractions import Fraction

import pytest

from hgpdecode.cli import main
from hgpdecode.graphs import audit_expansion, gen_biregular, graph_from_text, write_graph
from hgpdecode.harness import CampaignConfig, montecarlo
from hgpdecode.hgp import QubitSet, build_hgp, qubitset_to_text


@pytest.fixture(scope="module")
def mid_graph():
    return gen_biregular(12, 3, 6, seed=5)


@pytest.fixture()
def graph_file(tmp_path, mid_graph):
    path = tmp_path / "graph.txt"
    write_graph(mid_graph, path)
    return path


def test_gen_graph_writes_the_seeded_graph(tmp_path, capsys, mid_graph):
    out = tmp_path / "g.txt"
    argv = ["gen-graph", "--n", "12", "--delta-v", "3", "--delta-c", "6", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    assert graph_from_text(out.read_text()) == mid_graph

    assert main(argv) == 0  # default: stdout
    assert graph_from_text(capsys.readouterr().out) == mid_graph


def test_gen_graph_rejects_impossible_degrees(capsys):
    code = main(["gen-graph", "--n", "5", "--delta-v", "3", "--delta-c", "6", "--seed", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_audit_prints_per_size_expansion(graph_file, capsys, mid_graph):
    assert main(["audit", "--graph", str(graph_file), "--s-max", "2", "--side", "both"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# side size epsilon certified"
    rows = [ln.split() for ln in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("left", "1"), ("left", "2"), ("right", "1"), ("right", "2"),
    ]
    for side in ("left", "right"):
        profile = audit_expansion(mid_graph, side, 2)
        for row in rows:
            if row[0] == side:
                assert Fraction(row[2]) == profile.worst_epsilon_by_size[int(row[1])]
                assert row[3] == "yes"


def test_audit_sampled_rows_are_marked_uncertified(graph_file, capsys):
    argv = ["audit", "--graph", str(graph_file), "--s-max", "2", "--side", "left",
            "--samples", "5", "--sample-seed", "1"]
    assert main(argv) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[1:]]
    assert all(row[3] == "no" for row in rows)


def test_audit_without_samples_exits_two(graph_file, capsys):
    assert main(["audit", "--graph", str(graph_file), "--s-max", "2", "--samples", "0"]) == 2
    assert "samples must be at least 1" in capsys.readouterr().err


def test_audit_prints_nothing_when_the_run_is_invalid(graph_file, capsys):
    # The left side has 12 vertices, so size 99 is refused before any row.
    assert main(["audit", "--graph", str(graph_file), "--s-max", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds left-side cardinality" in captured.err


@pytest.mark.parametrize(
    "text, line",
    [
        ("2 1 1 2\n0\n5\n", 3),
        ("2 2 1 1\n0\n0\n", 3),
        # A non-ASCII byte (UTF-8 for U+00E9) names its line, not its offset.
        ("2 1 1 2\n0\n\u00e9\n", 3),
        # Content after the n adjacency lines is refused.
        ("2 1 1 2\n0\n0\nnonsense\n", 4),
    ],
)
def test_build_hgp_names_the_malformed_graph_line(tmp_path, capsys, text, line):
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode("utf-8"))
    assert main(["build-hgp", "--graph", str(path)]) == 2
    assert f"error: line {line}: " in capsys.readouterr().err


def test_build_hgp_prints_code_parameters(graph_file, capsys, mid_graph):
    code = build_hgp(mid_graph)
    assert main(["build-hgp", "--graph", str(graph_file)]) == 0
    out = capsys.readouterr().out
    assert f"qubits N={code.num_qubits}" in out
    assert f"logical K={code.k}" in out
    assert f"checks={code.num_checks}" in out
    assert f"generators={code.num_gens}" in out
    assert "distance" not in out


def test_build_hgp_prints_k_at_n240(tmp_path, capsys):
    # N = 72,000.  K = (n - r)^2 + (m - r)^2 with r the base rank; this
    # (3,6) base has full rank m = 120.
    path = tmp_path / "g240.txt"
    write_graph(gen_biregular(240, 3, 6, seed=7), path)
    assert main(["build-hgp", "--graph", str(path)]) == 0
    out = capsys.readouterr().out
    assert "qubits N=72000" in out
    assert f"logical K={120 ** 2}" in out


def test_decode_succeeds_and_writes_artifacts(tmp_path, graph_file, capsys, mid_graph):
    code = build_hgp(mid_graph)
    error_path = tmp_path / "error.txt"
    error_path.write_text(qubitset_to_text(QubitSet.from_indices(code, [0, 100])))
    out_dir = tmp_path / "run"
    argv = [
        "decode", "--graph", str(graph_file), "--error", str(error_path),
        "--epsilon", "1/20", "--out-dir", str(out_dir), "--reduce", "greedy",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "status=success" in out
    assert "coset_equivalent=1" in out
    assert (out_dir / "envelope.txt").exists()
    assert (out_dir / "trace.txt").exists()
    assert (out_dir / "verdict.txt").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_decode_exit_one_when_recovery_is_ambiguous(tmp_path, capsys):
    graph = gen_biregular(2, 1, 2, seed=0)
    code = build_hgp(graph)
    graph_path = tmp_path / "path.txt"
    write_graph(graph, graph_path)
    error_path = tmp_path / "error.txt"
    error_path.write_text(qubitset_to_text(QubitSet.from_indices(code, [0])))
    argv = [
        "decode", "--graph", str(graph_path), "--error", str(error_path),
        "--epsilon", "1/2", "--detect-ambiguity",
    ]
    assert main(argv) == 1
    assert "status=ambiguous-logical" in capsys.readouterr().out


def test_decode_reduce_exact_is_a_usage_error(tmp_path, graph_file, capsys):
    error_path = tmp_path / "error.txt"
    error_path.write_text("VV 0 0\n")
    argv = ["decode", "--graph", str(graph_file), "--error", str(error_path),
            "--epsilon", "1/20", "--reduce", "exact"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'exact'" in err and "none" in err and "greedy" in err


def test_decode_verify_exit_is_a_usage_error(tmp_path, graph_file, capsys):
    # The exit audit is a test oracle, not a decode option.
    error_path = tmp_path / "error.txt"
    error_path.write_text("VV 0 0\n")
    argv = ["decode", "--graph", str(graph_file), "--error", str(error_path),
            "--epsilon", "1/20", "--verify-exit"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--verify-exit" in capsys.readouterr().err


def test_decode_missing_file_exits_two(graph_file, capsys):
    argv = ["decode", "--graph", str(graph_file), "--error", "/nonexistent/error.txt",
            "--epsilon", "1/20"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_decode_refuses_a_non_ascii_digit(tmp_path, graph_file, capsys):
    # int() reads U+0663 ARABIC-INDIC DIGIT THREE as 3; an ASCII-only reader
    # refuses the file instead of decoding the qubit VV 3 0.
    error_path = tmp_path / "error.txt"
    error_path.write_bytes("VV \u0663 0\n".encode("utf-8"))
    argv = ["decode", "--graph", str(graph_file), "--error", str(error_path),
            "--epsilon", "1/20"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: line 1: " in captured.err
    assert captured.out == ""


def test_decode_refuses_a_repeated_qubit(tmp_path, graph_file, capsys):
    # Read as a set, the file would decode one qubit while listing two.
    error_path = tmp_path / "error.txt"
    error_path.write_text("VV 0 0\nCC 1 1\nVV 0 0\n")
    argv = ["decode", "--graph", str(graph_file), "--error", str(error_path),
            "--epsilon", "1/20"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: line 3: qubit VV 0 0 repeats line 1" in captured.err
    assert captured.out == ""


def test_montecarlo_output_is_reproducible(tmp_path, capsys):
    config = CampaignConfig(
        n=12, delta_v=3, delta_c=6, graph_seed=5,
        trials=6, weights=(1,), epsilon="1/20", seed=3,
    )
    config_path = tmp_path / "campaign.txt"
    config_path.write_text(config.to_text())
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    base = ["montecarlo", "--config", str(config_path), "--no-wall"]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()

    assert main(base) == 0  # default: stdout
    assert capsys.readouterr().out == out_a.read_text()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_montecarlo_exit_code_tracks_trial_failures(tmp_path):
    config = CampaignConfig(
        n=12, delta_v=3, delta_c=6, graph_seed=5,
        trials=6, weights=(2,), epsilon="5/9", seed=3,
    )
    config_path = tmp_path / "campaign.txt"
    config_path.write_text(config.to_text())
    expected = 0 if montecarlo(config).all_succeeded else 1
    assert expected == 1  # explosion regime: some trials land in the wrong coset
    code = main(["montecarlo", "--config", str(config_path), "--no-wall",
                 "--out", str(tmp_path / "out.txt")])
    assert code == expected


def test_montecarlo_bad_config_exits_two(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "campaign.txt"
    config_path.write_text("nonsense\n")
    assert main(["montecarlo", "--config", str(config_path)]) == 2
    assert "line 1" in capsys.readouterr().err
    config_path.write_bytes("n=12\ntrials=\u0663\n".encode("utf-8"))
    assert main(["montecarlo", "--config", str(config_path)]) == 2
    assert "error: line 2: " in capsys.readouterr().err
    config = CampaignConfig(n=12, delta_v=3, delta_c=6, graph_seed=5, trials=1, weights=(1,), epsilon="1/20")
    config_path.write_text(config.to_text())
    monkeypatch.setenv("HGPDECODE_WORKERS", "two")
    assert main(["montecarlo", "--config", str(config_path)]) == 2
    assert "error: HGPDECODE_WORKERS must be an integer, got 'two'" in capsys.readouterr().err


def test_montecarlo_weight_above_the_qubit_count_exits_two(tmp_path, capsys):
    config = CampaignConfig(n=12, delta_v=3, delta_c=6, graph_seed=5, trials=1, weights=(500,), epsilon="1/20")
    config_path = tmp_path / "campaign.txt"
    config_path.write_text(config.to_text())
    assert main(["montecarlo", "--config", str(config_path)]) == 2
    assert "error: weight 500 exceeds the code's N = 180 qubits" in capsys.readouterr().err


def test_radius_table_prints_all_rows(capsys):
    assert main(["radius-table", "--r", "1/2", "--epsilon", "1/20", "--delta-c", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# algorithm")
    assert [ln.split()[0] for ln in lines[1:]] == ["ssflip-ltz", "ssflip-grospellier", "ssfind"]


def test_radius_table_out_of_range_value_exits_two(capsys):
    assert main(["radius-table", "--r", "0", "--epsilon", "1/20", "--delta-c", "6"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unparseable_fraction_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["radius-table", "--r", "banana", "--epsilon", "1/20", "--delta-c", "6"])
    assert exc.value.code == 2
    assert "not a fraction" in capsys.readouterr().err


def test_unknown_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "hgpdecode", "radius-table",
         "--r", "1/2", "--epsilon", "1/20", "--delta-c", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ssfind 0.062500" in proc.stdout
