"""End-to-end command-line behavior: files, exit codes, round trips."""

import contextlib
import hashlib
import importlib.util
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from obf import dataio, workers
from obf.bayes import jp_prior, log_h_table, matrix_stats, pp_prior
from obf.cli import main
from obf.dataio import load_config, read_csv_text

from oracles import student_t_two_sided_p_ref


JP_PRIOR = "[prior]\npreset = jp\n"
PP_PRIOR = "[prior]\npreset = pp\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def toy_dataset(tmp_path, with_constant=False):
    header = ["sep", "null", "label"]
    x_sep = [0.0, 1.0, 0.5, 1.5, 10.0, 11.0, 10.5, 11.5]
    x_null = [0.3, -0.2, 0.1, 0.4, 0.2, -0.1, 0.0, 0.5]
    labels = [0, 0, 0, 0, 1, 1, 1, 1]
    if with_constant:
        header.insert(2, "flat")
    lines = [",".join(header)]
    for i in range(8):
        row = [repr(x_sep[i]), repr(x_null[i])]
        if with_constant:
            row.append("5.0")
        row.append(str(labels[i]))
        lines.append(",".join(row))
    return write(tmp_path / "toy.csv", "\n".join(lines) + "\n")


class TestRank:
    def test_ranks_separated_feature_first(self, tmp_path):
        data = toy_dataset(tmp_path)
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        out = str(tmp_path / "ranked.csv")
        assert main(["rank", data, "--config", cfg, "--out", out]) == 0
        header, rows, comments = read_csv_text(out)
        assert rows[0][header.index("feature")] == "sep"
        assert rows[0][header.index("rank")] == "1"
        assert float(rows[0][header.index("pi_star")]) > 0.99
        assert any(c.startswith("# tool: obf") for c in comments)
        assert any(c.startswith("# config_digest:") for c in comments)
        assert any(c.startswith("# seed:") for c in comments)

    def test_constant_feature_degenerate_under_jp(self, tmp_path):
        data = toy_dataset(tmp_path, with_constant=True)
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        out = str(tmp_path / "ranked.csv")
        assert main(["rank", data, "--config", cfg, "--out", out]) == 0
        header, rows, _ = read_csv_text(out)
        status = header.index("status")
        assert [r[status] for r in rows] == ["ok", "ok", "degenerate"]
        assert rows[-1][header.index("feature")] == "flat"
        assert rows[-1][header.index("log_h")] == ""
        # baselines that are defined still appear for the degenerate row
        assert rows[-1][header.index("welch_t")] != ""

    def test_welch_p_on_constant_columns(self, tmp_path):
        x_sep = [0.0, 1.0, 0.5, 1.5, 10.0, 11.0, 10.5, 11.5]
        x_apart = [3.0] * 4 + [7.0] * 4
        x_half = [2.0, 2.0, 2.0, 2.0, 1.0, 3.5, 2.5, 4.0]
        lines = ["sep,same,apart,half,label"]
        for i in range(8):
            lines.append(f"{x_sep[i]!r},5.0,{x_apart[i]!r},{x_half[i]!r},{i // 4}")
        data = write(tmp_path / "flat.csv", "\n".join(lines) + "\n")
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        out = str(tmp_path / "ranked.csv")
        assert main(["rank", data, "--config", cfg, "--out", out]) == 0
        header, rows, _ = read_csv_text(out)
        by_name = {r[0]: dict(zip(header, r)) for r in rows}
        # equal constants: t = 0 and p = 1; different constants: |t| = inf, p = 0
        assert by_name["same"]["welch_t"] == "0.0"
        assert by_name["same"]["welch_p"] == "1.0"
        assert by_name["apart"]["welch_t"] == "-inf"
        assert by_name["apart"]["welch_p"] == "0.0"
        # constant in class 0 only: Welch-Satterthwaite df is n1 - 1 = 3
        t = float(by_name["half"]["welch_t"])
        p = float(by_name["half"]["welch_p"])
        assert math.isfinite(t) and t != 0.0
        assert abs(p - student_t_two_sided_p_ref(t, 3.0)) <= 1e-9

    def test_numeric_round_trip(self, tmp_path):
        data = toy_dataset(tmp_path)
        cfg = write(tmp_path / "cfg.ini", PP_PRIOR)
        out = str(tmp_path / "ranked.csv")
        main(["rank", data, "--config", cfg, "--out", out])
        header, rows, _ = read_csv_text(out)
        x = np.array([[0.0], [1.0], [0.5], [1.5], [10.0], [11.0], [10.5], [11.5]])
        ms = matrix_stats(x, [0, 0, 0, 0, 1, 1, 1, 1])
        lh, _, _, _ = log_h_table(pp_prior(), ms)
        assert float(rows[0][header.index("log_h")]) == lh[0]

    def test_transpose_and_label_column(self, tmp_path):
        text = (
            "probe,s1,s2,s3,s4,s5,s6,s7,s8\n"
            "sep,0.0,1.0,0.5,1.5,10.0,11.0,10.5,11.5\n"
            "null,0.3,-0.2,0.1,0.4,0.2,-0.1,0.0,0.5\n"
            "cls,0,0,0,0,1,1,1,1\n"
        )
        data = write(tmp_path / "wide.csv", text)
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        out = str(tmp_path / "ranked.csv")
        code = main([
            "rank", data, "--config", cfg, "--out", out,
            "--transpose", "--label-column", "cls",
        ])
        assert code == 0
        header, rows, _ = read_csv_text(out)
        assert rows[0][header.index("feature")] == "sep"

    def test_parse_error_names_position(self, tmp_path, capsys):
        data = write(
            tmp_path / "bad.csv",
            "a,b,label\n1.0,2.0,0\n1.0,oops,1\n1.5,2.0,0\n1.0,2.5,1\n",
        )
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        code = main(["rank", data, "--config", cfg,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 2" in err

    def test_config_error_unknown_key(self, tmp_path, capsys):
        data = toy_dataset(tmp_path)
        cfg = write(tmp_path / "cfg.ini", "[prior]\npreset = jp\nbogus = 1\n")
        code = main(["rank", data, "--config", cfg,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "bogus" in capsys.readouterr().err

    def test_all_degenerate_exit_code(self, tmp_path):
        data = write(
            tmp_path / "flat.csv",
            "a,b,label\n1.0,2.0,0\n1.0,2.0,0\n1.0,2.0,1\n1.0,2.0,1\n",
        )
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        code = main(["rank", data, "--config", cfg,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 4


class TestSelect:
    def ranked_file(self, tmp_path, pis):
        header = "feature,log_h,pi_star,log1m_pi_star,rank,status"
        lines = [header]
        order = np.argsort(-np.asarray(pis), kind="stable")
        for rank, idx in enumerate(order, start=1):
            p = pis[idx]
            lh = math.log(p / (1 - p))
            lines.append(
                f"f{idx + 1},{lh!r},{p!r},{math.log1p(-p)!r},{rank},ok"
            )
        return write(tmp_path / "ranked.csv", "\n".join(lines) + "\n")

    def test_mnc_from_ranked(self, tmp_path, capsys):
        ranked = self.ranked_file(tmp_path, [0.9, 0.4])
        cfg = write(tmp_path / "sel.ini", "[selection]\ncriterion = mnc\n")
        out = str(tmp_path / "sel.csv")
        assert main(["select", ranked, "--config", cfg, "--out", out]) == 0
        header, rows, _ = read_csv_text(out)
        assert [r[0] for r in rows] == ["f1"]
        summary = capsys.readouterr().out
        assert "selected=1" in summary
        fp = float(summary.split("expected_fp=")[1])
        assert fp == pytest.approx(0.1, rel=1e-12)

    def test_cmnc_selects_both(self, tmp_path):
        ranked = self.ranked_file(tmp_path, [0.9, 0.4])
        cfg = write(tmp_path / "sel.ini", "[selection]\ncriterion = cmnc\nd = 2\n")
        out = str(tmp_path / "sel.csv")
        assert main(["select", ranked, "--config", cfg, "--out", out]) == 0
        _, rows, _ = read_csv_text(out)
        assert [r[0] for r in rows] == ["f1", "f2"]

    def test_np_budget(self, tmp_path, capsys):
        ranked = self.ranked_file(tmp_path, [0.99, 0.9])
        cfg = write(tmp_path / "sel.ini",
                    "[selection]\ncriterion = np\nalpha = 0.05\n")
        out = str(tmp_path / "sel.csv")
        assert main(["select", ranked, "--config", cfg, "--out", out]) == 0
        _, rows, _ = read_csv_text(out)
        assert [r[0] for r in rows] == ["f1"]

    def test_round_trip_matches_in_process(self, tmp_path):
        data = toy_dataset(tmp_path)
        cfg = write(tmp_path / "cfg.ini",
                    JP_PRIOR + "\n[selection]\ncriterion = mnc\n")
        ranked = str(tmp_path / "ranked.csv")
        main(["rank", data, "--config", cfg, "--out", ranked])
        out_a = str(tmp_path / "sel_a.csv")
        out_b = str(tmp_path / "sel_b.csv")
        assert main(["select", ranked, "--config", cfg, "--out", out_a]) == 0
        assert main(["select", data, "--config", cfg, "--out", out_b]) == 0
        _, rows_a, _ = read_csv_text(out_a)
        _, rows_b, _ = read_csv_text(out_b)
        assert rows_a == rows_b

    @pytest.mark.parametrize("blank", ["", "nan"])
    def test_ok_row_without_score_is_parse_error(self, tmp_path, capsys, blank):
        ranked = self.ranked_file(tmp_path, [0.9, 0.8, 0.7, 0.6])
        lines = (tmp_path / "ranked.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = blank
        lines[2] = ",".join(cells)
        write(tmp_path / "ranked.csv", "\n".join(lines) + "\n")
        cfg = write(tmp_path / "sel.ini",
                    "[selection]\ncriterion = np\nalpha = 0.2\n")
        out = tmp_path / "sel.csv"
        assert main(["select", ranked, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "log1m_pi_star" in err and "row 3" in err and "column 4" in err
        assert not out.exists()

    def test_infinite_log_h_is_a_score(self, tmp_path, capsys):
        ranked = write(
            tmp_path / "ranked.csv",
            "feature,log_h,pi_star,log1m_pi_star,rank,status\n"
            "a,inf,1.0,-inf,1,ok\n"
            "b,-inf,0.0,0.0,2,ok\n",
        )
        cfg = write(tmp_path / "sel.ini", "[selection]\ncriterion = mnc\n")
        out = str(tmp_path / "sel.csv")
        assert main(["select", ranked, "--config", cfg, "--out", out]) == 0
        _, rows, _ = read_csv_text(out)
        assert [r[0] for r in rows] == ["a"]
        assert "expected_fp=0.0" in capsys.readouterr().out

    @pytest.mark.parametrize("cell", ["oops", "0x1"])
    def test_ok_row_with_text_score_names_position(self, tmp_path, capsys, cell):
        ranked = self.ranked_file(tmp_path, [0.9, 0.8, 0.7])
        lines = (tmp_path / "ranked.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = cell
        lines[3] = ",".join(cells)
        write(tmp_path / "ranked.csv", "\n".join(lines) + "\n")
        cfg = write(tmp_path / "sel.ini", "[selection]\ncriterion = mnc\n")
        assert main(["select", ranked, "--config", cfg,
                     "--out", str(tmp_path / "sel.csv")]) == 2
        err = capsys.readouterr().err
        assert "pi_star" in err and "row 4" in err and "column 3" in err

    def test_first_bad_score_in_reading_order_is_named(self, tmp_path, capsys):
        ranked = self.ranked_file(tmp_path, [0.9, 0.8, 0.7])
        lines = (tmp_path / "ranked.csv").read_text().splitlines()
        for line_no, column in ((2, 3), (3, 1)):
            cells = lines[line_no].split(",")
            cells[column] = "x"
            lines[line_no] = ",".join(cells)
        write(tmp_path / "ranked.csv", "\n".join(lines) + "\n")
        cfg = write(tmp_path / "sel.ini", "[selection]\ncriterion = mnc\n")
        assert main(["select", ranked, "--config", cfg,
                     "--out", str(tmp_path / "sel.csv")]) == 2
        err = capsys.readouterr().err
        assert "log1m_pi_star" in err and "row 3" in err and "column 4" in err

    def test_ragged_ranked_row_names_position(self, tmp_path, capsys):
        ranked = self.ranked_file(tmp_path, [0.9, 0.8, 0.7])
        lines = (tmp_path / "ranked.csv").read_text().splitlines()
        lines[2] += ",extra"
        write(tmp_path / "ranked.csv", "\n".join(lines) + "\n")
        cfg = write(tmp_path / "sel.ini", "[selection]\ncriterion = mnc\n")
        assert main(["select", ranked, "--config", cfg,
                     "--out", str(tmp_path / "sel.csv")]) == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 7" in err

    def test_bad_size_is_config_error(self, tmp_path):
        ranked = self.ranked_file(tmp_path, [0.9, 0.4])
        cfg = write(tmp_path / "sel.ini", "[selection]\ncriterion = cmnc\nd = 5\n")
        assert main(["select", ranked, "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 3


class TestRoc:
    def test_endpoints_and_monotonicity(self, tmp_path):
        data = toy_dataset(tmp_path)
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        out = str(tmp_path / "curve")
        assert main(["roc", data, "--config", cfg, "--out", out]) == 0
        header, rows, _ = read_csv_text(out + ".csv")
        assert len(rows) == 3  # |F| + 1
        assert rows[0][1] == "0.0" and rows[0][2] == "0.0"
        xs = [float(r[1]) for r in rows]
        ys = [float(r[2]) for r in rows]
        assert xs == sorted(xs) and ys == sorted(ys)
        assert os.path.exists(out + ".svg")

    def test_roc_from_ranked_csv_matches_dataset_path(self, tmp_path):
        data = toy_dataset(tmp_path)
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        ranked = str(tmp_path / "ranked.csv")
        main(["rank", data, "--config", cfg, "--out", ranked])
        out_a = str(tmp_path / "from_ranked")
        out_b = str(tmp_path / "from_dataset")
        assert main(["roc", ranked, "--config", cfg, "--out", out_a]) == 0
        assert main(["roc", data, "--config", cfg, "--out", out_b]) == 0
        _, rows_a, _ = read_csv_text(out_a + ".csv")
        _, rows_b, _ = read_csv_text(out_b + ".csv")
        assert rows_a == rows_b


class TestInputReads:
    @pytest.mark.parametrize("command", ["select", "roc"])
    @pytest.mark.parametrize("source", ["dataset", "ranked"])
    def test_input_opened_once(self, tmp_path, monkeypatch, command, source):
        data = toy_dataset(tmp_path)
        cfg = write(tmp_path / "cfg.ini",
                    JP_PRIOR + "\n[selection]\ncriterion = mnc\n")
        path = data
        if source == "ranked":
            path = str(tmp_path / "ranked.csv")
            assert main(["rank", data, "--config", cfg, "--out", path]) == 0
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if os.fspath(file) == path:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        out = str(tmp_path / "out")
        assert main([command, path, "--config", cfg, "--out", out]) == 0
        assert len(opened) == 1

    @pytest.mark.parametrize("transpose", [False, True],
                             ids=["samples-in-rows", "features-in-rows"])
    def test_parse_in_workers_writes_the_same_bytes(self, tmp_path, monkeypatch,
                                                    capsys, transpose):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(40, 6)) + np.arange(40)[:, None] % 2
        names = [f"g{j}" for j in range(6)]
        if transpose:
            lines = ["id," + ",".join(f"s{i}" for i in range(40)),
                     "label," + ",".join(str(i % 2) for i in range(40))]
            lines += [",".join([n, *map(repr, col)])
                      for n, col in zip(names, values.T.tolist())]
        else:
            lines = [",".join([*names, "label"])]
            lines += [",".join([*map(repr, row), str(i % 2)])
                      for i, row in enumerate(values.tolist())]
        data = write(tmp_path / "data.csv", "\n".join(lines) + "\n")
        cfg = write(tmp_path / "cfg.ini",
                    JP_PRIOR + "\n[selection]\ncriterion = mnc\n")

        def outputs(tag):
            got = []
            for command in ("rank", "select"):
                out = tmp_path / f"{command}-{tag}.csv"
                argv = [command, data, "--config", cfg, "--out", str(out)]
                assert main(argv + ["--transpose"] * transpose) == 0
                got += [out.read_bytes(), capsys.readouterr().out]
            return got

        one = outputs("one")
        forks = []
        real_fork = workers.fork
        monkeypatch.setattr(workers, "fork",
                            lambda *args: forks.append(1) or real_fork(*args))
        monkeypatch.setattr(workers, "PART_BYTES", 1 << 10)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
        assert outputs("many") == one
        # two commands, each reading 3-4 ranges
        assert len(forks) >= 4


def test_commands_import_no_process_pool():
    """Only a sweep on several workers imports the process pool."""
    src = os.path.dirname(os.path.dirname(workers.__file__))
    code = "import sys, obf.cli; sys.exit('concurrent.futures' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=src))


class TestErrors:
    @pytest.mark.parametrize("command", ["rank", "select", "roc"])
    def test_missing_input_exit_2(self, tmp_path, capsys, command):
        cfg = write(tmp_path / "cfg.ini",
                    JP_PRIOR + "\n[selection]\ncriterion = mnc\n")
        missing = str(tmp_path / "nonexistent.csv")
        code = main([command, missing, "--config", cfg,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nonexistent.csv" in err

    @pytest.mark.parametrize("command", ["select", "roc"])
    def test_duplicate_ranked_feature_exit_2(self, tmp_path, capsys, command):
        ranked = write(
            tmp_path / "ranked.csv",
            "feature,log_h,pi_star,log1m_pi_star,rank,status\n"
            "a,2.0,0.88,-2.1,1,ok\n"
            "b,1.0,0.73,-1.3,2,ok\n"
            "a,0.5,0.62,-0.97,3,ok\n",
        )
        cfg = write(tmp_path / "sel.ini", "[selection]\ncriterion = mnc\n")
        out = tmp_path / "out"
        assert main([command, ranked, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ranked.csv" in err
        assert "'a'" in err and "row 4" in err and "column 1" in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("transpose", [False, True],
                             ids=["samples-in-rows", "features-in-rows"])
    @pytest.mark.parametrize("name", ["a", "label"])
    def test_repeated_name_exit_2(self, tmp_path, capsys, transpose, name):
        # names a, b, <name>, label; a second 'label' used to be scored
        names = ["a", "b", name, "label"]
        columns = [[0.5, 1.5, 0.25, 2.5], [1.0, 2.0, 3.0, 4.0],
                   [0, 1, 0, 1], [0, 0, 1, 1]]
        if transpose:
            lines = ["id,s1,s2,s3,s4"]
            lines += [",".join([n, *map(str, col)]) for n, col in zip(names, columns)]
            line, first, second = "row", names.index(name) + 2, 4
        else:
            lines = [",".join(names)]
            lines += [",".join(map(str, row)) for row in zip(*columns)]
            line, first, second = "column", names.index(name) + 1, 3
        if name == "label":
            first, second = second, second + 1
        data = write(tmp_path / "dup.csv", "\n".join(lines) + "\n")
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        out = tmp_path / "o.csv"
        code = main(["rank", data, "--config", cfg, "--out", str(out)]
                    + ["--transpose"] * transpose)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{name}'" in err
        assert f"{line} {first}" in err and f"({line} {second})" in err
        assert not out.exists()

    @pytest.mark.parametrize("transpose", [False, True],
                             ids=["samples-in-rows", "features-in-rows"])
    @pytest.mark.parametrize("command", ["rank", "select"])
    def test_no_feature_exit_2(self, tmp_path, capsys, transpose, command):
        # only the label column, or only the label row
        text = ("id,s1,s2,s3,s4\nlabel,0,1,0,1\n" if transpose
                else "label\n0\n1\n0\n1\n")
        data = write(tmp_path / "labels_only.csv", text)
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR + "[selection]\ncriterion = mnc\n")
        out = tmp_path / "o.csv"
        code = main([command, data, "--config", cfg, "--out", str(out)]
                    + ["--transpose"] * transpose)
        assert code == 2
        line = "row" if transpose else "column"
        assert capsys.readouterr().err == f"error: {data}: no feature {line}s\n"
        assert not out.exists()

    def test_undecodable_input_exit_2(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"a,b,label\n1.0,\xff2.0,0\n")
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        code = main(["rank", str(data), "--config", cfg,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("target", ["missing_dir/o.csv", "a_directory"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, target):
        data = toy_dataset(tmp_path)
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
        (tmp_path / "a_directory").mkdir()
        code = main(["rank", data, "--config", cfg,
                     "--out", str(tmp_path / target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and target in err
        assert not list(tmp_path.rglob(".tmp-obf-*"))

    def test_prior_leaving_no_scorable_feature_exit_3(self, tmp_path, capsys):
        data = toy_dataset(tmp_path)
        cfg = write(tmp_path / "cfg.ini", JP_PRIOR + "kappa0 = -500\n")
        code = main(["rank", data, "--config", cfg,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")


def test_outputs_honour_umask(tmp_path):
    data = toy_dataset(tmp_path)
    cfg = write(tmp_path / "cfg.ini", JP_PRIOR)
    out = tmp_path / "ranked.csv"
    previous = os.umask(0o022)
    try:
        assert main(["rank", data, "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o644


@pytest.mark.parametrize("preset, expected", [("pp", pp_prior), ("jp", jp_prior)])
def test_prior_presets_match_library(tmp_path, preset, expected):
    cfg = write(tmp_path / "cfg.ini", f"[prior]\npreset = {preset}\n")
    assert load_config(cfg).prior == expected()


SYNTH_SMALL = """
[synth]
n_features = 120
n_global = 10
n_hetero = 40
n_lowvar = 50
n_highvar = 20
block_size = 5
rho = 0.8
n_groups = 2
group_sigmas = 0.16:0.16,0.09:0.25
"""


class TestSimulate:
    def test_files_and_determinism(self, tmp_path):
        cfg = write(tmp_path / "syn.ini", SYNTH_SMALL)
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        for out in (out_a, out_b):
            assert main(["simulate", "--config", cfg, "--n", "12",
                         "--seed", "5", "--out", out]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.truth.csv").read_bytes() == \
            (tmp_path / "b.truth.csv").read_bytes()
        header, rows, _ = read_csv_text(out_a)
        assert len(header) == 121 and header[-1] == "label"
        assert len(rows) == 12
        _, truth_rows, _ = read_csv_text(str(tmp_path / "a.truth.csv"))
        assert len(truth_rows) == 120

    def test_simulated_data_roundtrips_through_rank(self, tmp_path):
        cfg = write(tmp_path / "syn.ini", SYNTH_SMALL + JP_PRIOR)
        out = str(tmp_path / "sim.csv")
        main(["simulate", "--config", cfg, "--n", "40", "--seed", "1",
              "--out", out])
        ranked = str(tmp_path / "ranked.csv")
        assert main(["rank", out, "--config", cfg, "--out", ranked]) == 0

    def test_multiline_config_value_stays_commented(self, tmp_path):
        cfg = write(
            tmp_path / "syn.ini",
            SYNTH_SMALL + JP_PRIOR + "[plan]\nn_grid = 20\nreplicates = 1\n"
            "methods = mnc-obf-jp;\n    bd:D=50\n",
        )
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", "--config", cfg, "--n", "20", "--seed", "1",
                     "--out", out]) == 0
        _, _, comments = read_csv_text(out)
        assert "#   bd:D=50" in comments
        ranked = str(tmp_path / "ranked.csv")
        assert main(["rank", out, "--config", cfg, "--out", ranked]) == 0

    def test_invalid_config_exit_3(self, tmp_path):
        cfg = write(tmp_path / "syn.ini",
                    SYNTH_SMALL.replace("n_features = 120", "n_features = 121"))
        assert main(["simulate", "--config", cfg, "--n", "12",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_full_size_preset_writes(self, tmp_path):
        cfg = write(tmp_path / "syn.ini", "[synth]\npreset = full\n")
        out = str(tmp_path / "big.csv")
        assert main(["simulate", "--config", cfg, "--n", "8", "--seed", "1",
                     "--out", out]) == 0
        header, rows, _ = read_csv_text(out)
        assert len(header) == 20001 and len(rows) == 8
        _, truth_rows, _ = read_csv_text(str(tmp_path / "big.truth.csv"))
        tags = {}
        for _, tag in truth_rows:
            tags[tag] = tags.get(tag, 0) + 1
        assert tags["GLOBAL"] == 20 and tags["HETERO"] == 80

    def test_render_in_workers_writes_the_same_bytes(self, tmp_path, monkeypatch):
        cfg = write(tmp_path / "syn.ini", SYNTH_SMALL)

        def simulate(tag):
            out = tmp_path / f"sim-{tag}.csv"
            assert main(["simulate", "--config", cfg, "--n", "40", "--seed", "3",
                         "--out", str(out)]) == 0
            return out.read_bytes(), (tmp_path / f"sim-{tag}.truth.csv").read_bytes()

        # 2 rows a block: 20 blocks
        monkeypatch.setattr(dataio, "_RENDER_CELLS", 256)
        one = simulate("one")
        forks = []
        real_fork = workers.fork
        monkeypatch.setattr(workers, "fork",
                            lambda *args: forks.append(1) or real_fork(*args))
        monkeypatch.setattr(workers, "PART_BYTES", 1 << 10)
        for cpus in (2, 4):
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            assert simulate(cpus) == one
        assert len(forks) == 6


PLAN_SMALL = """
[plan]
n_grid = 20,30
replicates = 2
base_seed = 4
methods = mnc-obf-jp; bd:D=50
"""


class TestConsistency:
    def test_metrics_and_svg(self, tmp_path):
        cfg = write(tmp_path / "run.ini", SYNTH_SMALL + PLAN_SMALL)
        out_dir = str(tmp_path / "out")
        assert main(["consistency", "--config", cfg, "--out", out_dir]) == 0
        header, rows, comments = read_csv_text(os.path.join(out_dir, "metrics.csv"))
        assert len(rows) == 4  # |n_grid| x |methods|
        assert header[:4] == ["n", "method", "mean_correct", "sd_correct"]
        svg = (tmp_path / "out" / "consistency.svg").read_text()
        assert svg.count("<polyline") == 2
        assert "sample size n" in svg

    def test_single_cell_plan(self, tmp_path):
        cfg = write(
            tmp_path / "run.ini",
            SYNTH_SMALL + "[plan]\nn_grid = 20\nreplicates = 1\n"
            "methods = mnc-obf-jp\n",
        )
        out_dir = str(tmp_path / "solo")
        assert main(["consistency", "--config", cfg, "--out", out_dir]) == 0
        _, rows, _ = read_csv_text(os.path.join(out_dir, "metrics.csv"))
        assert len(rows) == 1
        svg = (tmp_path / "solo" / "consistency.svg").read_text()
        assert svg.count("<polyline") == 1

    def test_output_path_is_a_file_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", SYNTH_SMALL + PLAN_SMALL)
        taken = write(tmp_path / "taken", "")
        assert main(["consistency", "--config", cfg, "--out", taken]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_threads_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", SYNTH_SMALL + PLAN_SMALL)
        assert main(["consistency", "--config", cfg, "--threads", "-1",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "threads" in err
        assert "max_workers" not in err

    def test_mi_at_two_points_a_class_counts_every_feature_degenerate(self, tmp_path):
        cfg = write(tmp_path / "run.ini", SYNTH_SMALL + (
            "[plan]\nn_grid = 4,8,12\nreplicates = 1\n"
            "methods = mnc-obf-jp; mi:D=10; t:D=10\n"))
        out_dir = str(tmp_path / "out")
        assert main(["consistency", "--config", cfg, "--out", out_dir]) == 0
        header, rows, _ = read_csv_text(os.path.join(out_dir, "metrics.csv"))
        mi_at_4 = dict(zip(header, rows[1]))
        assert (mi_at_4["n"], mi_at_4["method"]) == ("4", "MI(D=10)")
        assert (mi_at_4["mean_selected"], mi_at_4["mean_degenerate"]) == ("0.0", "120.0")

    def test_missing_plan_exit_3(self, tmp_path):
        cfg = write(tmp_path / "run.ini", SYNTH_SMALL)
        assert main(["consistency", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 3


def tiny_plan(methods, n_grid="20"):
    return (SYNTH_SMALL + f"[plan]\nn_grid = {n_grid}\nreplicates = 1\n"
            f"methods = {methods}\n")


class TestRejectedParameters:
    """Every out-of-range parameter exits 3 before any work, naming itself."""

    @pytest.mark.parametrize("body, message", [
        ("criterion = cmnc\nd = -5\n", "d must be an integer >= 0"),
        ("criterion = cmnc\nd = 2.7\n", "d=2.7: invalid literal for int()"),
        ("criterion = cmnc\nd = 20.0\n", "d=20.0: invalid literal for int()"),
        ("criterion = mr\nt = nan\n", "t must lie in [0, 1]"),
        ("criterion = mr\nt = 1.5\n", "t must lie in [0, 1]"),
        ("criterion = np\nalpha = -1\n", "alpha must be a number >= 0"),
        ("criterion = np\nalpha = nan\n", "alpha must be a number >= 0"),
        ("criterion = mr\nlambdas = 0,inf,1,0\n",
         "lambdas=0,inf,1,0: loss weights must be finite"),
        ("criterion = mr\nt = 0.5\nd = 3\n", "mr does not read d"),
        ("criterion = mnc\nalpha = 0.5\n", "mnc does not read alpha"),
        ("criterion = mr\nt = 0.5\nlambdas = 0,1,1,0\n", "mr needs t or lambdas"),
    ])
    def test_selection(self, tmp_path, capsys, body, message):
        ranked = TestSelect().ranked_file(tmp_path, [0.9, 0.4])
        cfg = write(tmp_path / "sel.ini", "[selection]\n" + body)
        out = tmp_path / "sel.csv"
        assert main(["select", ranked, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "[selection]" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("method, message", [
        ("cmnc-obf-pp:D=-5", "d must be an integer >= 0"),
        ("t:D=-3", "d must be an integer >= 0"),
        ("cmnc-obf-pp:D=2.7", "d=2.7: invalid literal for int()"),
        ("cmnc-obf-pp:D=20.0", "d=20.0: invalid literal for int()"),
        ("mr-obf-pp:T=nan", "t must lie in [0, 1]"),
        ("mr-obf-pp:T=1.5", "t must lie in [0, 1]"),
        ("np-obf-pp:alpha=-1", "alpha must be a number >= 0"),
        ("np-obf-pp:alpha=nan", "alpha must be a number >= 0"),
        ("mnc-obf-jp:L=-1", "L must be finite and > 0"),
        ("mnc-obf-jp:L=0", "L must be finite and > 0"),
        ("mnc-obf-pp:pi=2", "pi must lie in [0, 1]"),
    ])
    def test_plan_method(self, tmp_path, capsys, method, message):
        cfg = write(tmp_path / "run.ini", tiny_plan(f"mnc-obf-jp; {method}"))
        out = tmp_path / "out"
        assert main(["consistency", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"method {method!r}" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("sigmas", ["0.16:nan,0.09:0.25", "0.16:inf,0.09:0.25"])
    def test_synth_group_sigmas(self, tmp_path, capsys, sigmas):
        cfg = write(tmp_path / "syn.ini",
                    f"[synth]\npreset = desk\ngroup_sigmas = {sigmas}\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", cfg, "--n", "20",
                     "--out", str(out)]) == 3
        assert "group_sigmas" in capsys.readouterr().err
        assert not list(tmp_path.glob("sim*"))

    @pytest.mark.parametrize("grid, message", [
        ("20:200:0", "n_grid step must be > 0"),
        ("20:200:-20", "n_grid step must be > 0"),
        ("a,b", "n_grid: not an integer: 'a'"),
        ("20:x:20", "n_grid: not an integer: 'x'"),
    ])
    def test_plan_n_grid(self, tmp_path, capsys, grid, message):
        cfg = write(tmp_path / "run.ini", tiny_plan("mnc-obf-jp", grid))
        assert main(["consistency", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("selection, method", [
    ("criterion = mr\nt = 0.3\n", "mr-obf-pp:T=0.3"),
    ("criterion = mnc\n", "mnc-obf-jp"),
    ("criterion = cmnc\nd = 15\n", "cmnc-obf-pp:D=15"),
    ("criterion = cmnc\nd = 15\n", "bd:D=15"),
    ("criterion = np\nalpha = 0.5\n", "np-obf-jp:alpha=0.5"),
    ("criterion = np\nalpha = inf\n", "np-obf-jp:alpha=inf"),
])
def test_selection_and_method_parse_to_equal_rules(tmp_path, selection, method):
    cfg = load_config(write(tmp_path / "run.ini",
                            "[selection]\n" + selection + tiny_plan(method)))
    assert cfg.selection == cfg.methods[0].rule


class TestMethodNames:
    def metrics(self, tmp_path, methods):
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        cfg = write(tmp_path / "run.ini", tiny_plan(methods))
        assert main(["consistency", "--config", cfg, "--out", str(out)]) == 0
        _, rows, _ = read_csv_text(str(out / "metrics.csv"))
        return {row[1]: row[2:] for row in rows}

    def test_overrides_keep_their_own_row(self, tmp_path):
        both = self.metrics(tmp_path, "mnc-obf-pp; mnc-obf-pp:pi=0.5")
        assert list(both) == ["MNC-OBF-PP", "MNC-OBF-PP(pi=0.5)"]
        assert both["MNC-OBF-PP"] != both["MNC-OBF-PP(pi=0.5)"]
        assert both == {**self.metrics(tmp_path, "mnc-obf-pp"),
                        **self.metrics(tmp_path, "mnc-obf-pp:pi=0.5")}

    @pytest.mark.parametrize("methods, name", [
        ("t:D=20; welch:D=20", "T-TEST(D=20)"),
        ("mnc-obf-pp; mnc-obf-pp", "MNC-OBF-PP"),
        ("np-obf-jp:alpha=0.5,pi=0.01; np-obf-jp:pi=0.01,alpha=0.5",
         "NP-OBF-JP(a=0.5;pi=0.01)"),
    ])
    def test_two_methods_of_one_name_exit_3(self, tmp_path, capsys, methods, name):
        cfg = write(tmp_path / "run.ini", tiny_plan(methods))
        assert main(["consistency", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        assert f"method {name} appears more than once" in capsys.readouterr().err


GOLDEN_PLAN = """
[plan]
n_grid = 20,40
replicates = 3
base_seed = 4
methods = mr-obf-pp:T=0.3; mnc-obf-jp; cmnc-obf-pp:D=20; np-obf-jp:alpha=0.5; np-obf-pp:alpha=2; t:D=20; welch:D=30; bd:D=20; mi:D=20; wilks:D=20
"""
GOLDEN_SELECTIONS = {
    "mr": "criterion = mr\nt = 0.3\n",
    "mnc": "criterion = mnc\n",
    "cmnc": "criterion = cmnc\nd = 15\n",
    "np": "criterion = np\nalpha = 0.5\n",
}
# sha256 of every output of the run in golden_outputs, and select's stdout;
# a change that moves any byte of them fails here
GOLDEN_DIGESTS = {
    "jp-cmnc.csv": "6786eeb5593bb78274a50f6d41b586aaaf8e301de2e46637c5d79b678cf1115d",
    "jp-mnc.csv": "990a07496f7dbd33f7da16a80c618ed4aaef2cd2bf81b662cf2e54511f8a783c",
    "jp-mr.csv": "97d696bdbca6a0f034e6beaeb2a58f00d06029797cd93aa6abaaf48708061f77",
    "jp-np.csv": "fc9dcf5bfcc431de87817d3bce60c40f4dd56ebde65b33608a94e88854eb39f5",
    "jp-ranked.csv": "6c4ef4a15d0106bf26f6fe700528e8adc8143ba3c4f4966b5865b8e98756769f",
    "jp-roc.csv": "fe5c5506c059ffd87a0e17da863e0cbdfa857cd8d06480cd91ea72814a19bdf6",
    "jp-roc.svg": "51c4f7683aecb04d51eaa65a0afc7fbeed8d48473e0b7dc6149146c717f3b137",
    "pp-cmnc.csv": "82e444d1a441ef2d80005cb89c560865dcd875f9d28e5114473991ad9e2f5999",
    "pp-mnc.csv": "cb2eae44b9b2225187dc75cd5ec80e72cec57332487d6be27813b5a8631b5bc6",
    "pp-mr.csv": "90b6e8eef3615932cb4ce23a32890d11dcb8119ef92af73bfb08e2c777002354",
    "pp-np.csv": "fa285668e85e59d8cce109271c3cdeff58340f9fe6f2d292386e65352736a335",
    "pp-ranked.csv": "f3300f4aaeafe6579c159c5a90dc13867d12681cb720167d359c9d09b0121005",
    "pp-roc.csv": "9505a9ecb093fd57cbd12a348e6afc02c36519a96a64e57769a4bdb1d42d75ad",
    "pp-roc.svg": "87c6b51c7a2f7c6283390f0fdbd4015c1af39aa556288f628492452a8e9e6643",
    "sim.csv": "70b9c69a84c47f591d82b266d043403230e7d43e45f7e6d92bba53d5b6fe1f69",
    "sim.truth.csv": "104c23f42a6b207ab33ef856c69641cb19c42f148bc017209035d7969ca1001b",
    "sweep/consistency.svg": "8d8dec63c2f353e5607aee44bdc534fdec49bcb80f5f83c43b2160be5003b563",
    "sweep/metrics.csv": "ba73baf01be1cec7ac0cfc22a00ea5024db1a29ae1271010f18c1d5717d4bf8d",
}
GOLDEN_SELECT_STDOUT = {
    "jp-cmnc": 'selected=15 expected_tp=10.499001490732011 expected_fp=4.500998509267992\n',
    "jp-mnc": 'selected=10 expected_tp=8.672422781104128 expected_fp=1.3275772188958723\n',
    "jp-mr": 'selected=14 expected_tp=10.407235998300205 expected_fp=3.5927640016997975\n',
    "jp-np": 'selected=8 expected_tp=7.583835189482838 expected_fp=0.41616481051716153\n',
    "pp-cmnc": 'selected=15 expected_tp=8.470058409003409 expected_fp=6.5299415909965886\n',
    "pp-mnc": 'selected=8 expected_tp=7.043275285915131 expected_fp=0.9567247140848685\n',
    "pp-mr": 'selected=9 expected_tp=7.380893933440264 expected_fp=1.619106066559735\n',
    "pp-np": 'selected=6 expected_tp=5.619189858381226 expected_fp=0.3808101416187738\n',
}


# sha256 of the ranked files with the welch_p column cut out, taken before the
# Welch p-values became one array call; that change may move welch_p only
GOLDEN_RANKED_WITHOUT_WELCH_P = {
    "jp-ranked.csv": "e5fbc68b92a55b60ea6e927c93a95bc6106db8902a2c1d620ff0371b6e8d485d",
    "pp-ranked.csv": "50d527548223bf68b34fee582d0198720eec76e67320b7b75b0d43120d421fd1",
}


def without_column(data: bytes, column: str) -> bytes:
    """A ranked file's bytes with one column cut from its header and rows."""
    lines = data.decode("utf-8").split("\n")
    at = None
    for k, line in enumerate(lines):
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if at is None:
            at = cells.index(column)
        del cells[at]
        lines[k] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Digests of every output, select's stdout, and the ranked files.

    select and roc run on the dataset and on the ranked file, and rank,
    select and roc on a features-in-rows copy of the dataset read with
    --transpose; all of them must give the same bytes.
    """
    tmp_path = tmp_path_factory.mktemp("golden")
    digests, stdout = {}, {}

    def run(name, *argv, outputs=()):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(list(argv)) == 0, name
        printed = out.getvalue()
        for suffix in outputs:
            data = (tmp_path / f"{name}{suffix}").read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            assert digests.setdefault(name.split("@")[0] + suffix, digest) == digest
        return printed

    cfg = write(tmp_path / "sweep.ini", SYNTH_SMALL + GOLDEN_PLAN)
    run("sim", "simulate", "--config", cfg, "--n", "40", "--seed", "5",
        "--out", str(tmp_path / "sim.csv"), outputs=(".csv", ".truth.csv"))
    run("sweep", "consistency", "--config", cfg, "--out", str(tmp_path / "sweep"),
        outputs=("/metrics.csv", "/consistency.svg"))
    data = str(tmp_path / "sim.csv")
    transposed = str(tmp_path / "sim-features-in-rows.csv")
    header, rows, comments = read_csv_text(data)
    lines = comments + [",".join(["feature"] + [f"s{i}" for i in range(len(rows))])]
    lines += [",".join(col) for col in zip(header, *rows)]
    write(tmp_path / "sim-features-in-rows.csv", "\n".join(lines) + "\n")
    for prior in ("pp", "jp"):
        cfg = write(tmp_path / f"{prior}.ini", f"[prior]\npreset = {prior}\n")
        ranked = str(tmp_path / f"{prior}-ranked.csv")
        run(f"{prior}-ranked", "rank", data, "--config", cfg, "--seed", "3",
            "--out", ranked, outputs=(".csv",))
        run(f"{prior}-ranked@transposed", "rank", transposed, "--transpose",
            "--config", cfg, "--seed", "3",
            "--out", str(tmp_path / f"{prior}-ranked@transposed.csv"),
            outputs=(".csv",))
        for source, path, *flags in (("data", data), ("ranked", ranked),
                                     ("transposed", transposed, "--transpose")):
            run(f"{prior}-roc@{source}", "roc", path, "--config", cfg, *flags,
                "--out", str(tmp_path / f"{prior}-roc@{source}"),
                outputs=(".csv", ".svg"))
            for crit, section in GOLDEN_SELECTIONS.items():
                sel_cfg = write(tmp_path / f"{prior}-{crit}.ini",
                                f"[prior]\npreset = {prior}\n[selection]\n{section}")
                name = f"{prior}-{crit}"
                printed = run(f"{name}@{source}", "select", path, *flags,
                              "--config", sel_cfg,
                              "--out", str(tmp_path / f"{name}@{source}.csv"),
                              outputs=(".csv",))
                assert stdout.setdefault(name, printed) == printed
    ranked = {f"{prior}-ranked.csv": (tmp_path / f"{prior}-ranked.csv").read_bytes()
              for prior in ("pp", "jp")}
    return digests, stdout, ranked


def test_outputs_match_golden_digests(golden):
    digests, stdout, _ = golden
    assert digests == GOLDEN_DIGESTS
    assert stdout == GOLDEN_SELECT_STDOUT


def test_ranked_columns_besides_welch_p_keep_their_bytes(golden):
    _, _, ranked = golden
    digests = {
        name: hashlib.sha256(without_column(data, "welch_p")).hexdigest()
        for name, data in ranked.items()
    }
    assert digests == GOLDEN_RANKED_WITHOUT_WELCH_P


def benchmark_tracing():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_wraps_and_restores_cli_names():
    """The benchmark's tracer (perfbench/tracing.py) wraps module attributes
    of obf.cli and obf.harness by name; dropping one breaks the traced run."""
    tracing = benchmark_tracing()
    import obf.cli
    import obf.harness

    before = {name: getattr(obf.cli, name) for name in tracing.CLI_SPANS}
    in_harness = {name: getattr(obf.harness, name) for name in tracing.HARNESS_SPANS}
    with tracing.installed(tracing.Tracer()):
        assert obf.cli.read_dataset is not before["read_dataset"]
        assert obf.cli.read_dataset.__wrapped__ is before["read_dataset"]
        assert obf.harness.matrix_stats.__wrapped__ is in_harness["matrix_stats"]
    assert {name: getattr(obf.cli, name) for name in tracing.CLI_SPANS} == before
    assert {name: getattr(obf.harness, name)
            for name in tracing.HARNESS_SPANS} == in_harness


def test_benchmark_tracer_times_the_sweeps_kernels():
    """A sweep cell calls matrix_stats and mi_array through obf.harness's
    names, once per batch of columns, so the traced spans see them."""
    from obf.harness import ExperimentPlan, parse_method, run_sweep
    from obf.synth import desk_config

    tracing = benchmark_tracing()
    plan = ExperimentPlan(desk_config(), (20,), 1,
                          (parse_method("mnc-obf-jp"), parse_method("mi:D=5")))
    with tracing.installed(tracing.Tracer()) as tracer:
        run_sweep(plan)
    metrics = tracer.metrics()
    assert metrics["bayes.matrix_stats_s"]["value"] > 0
    assert metrics["baselines.mi_s"]["value"] > 0
    assert metrics["bayes.log_h_table_s"]["value"] > 0
