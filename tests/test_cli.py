import numpy as np
import pytest

from pemnet import bench
from pemnet.bench import derive_seed, run_trial
from pemnet.cli import main
from pemnet.dynamics import SDDParams, load_time_series
from pemnet.graphs import GraphConfig, load_edge_list
from pemnet.pem import load_pem


def run(argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_valid_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run(["generate", "--seed", 3, "--out", out]) == 0
        g = load_edge_list(str(out))
        assert g.n == 10 and g.m == 45
        assert "config:" in capsys.readouterr().out

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["generate", "--seed", 5, "--out", a])
        run(["generate", "--seed", 5, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_config_exits_2(self, tmp_path):
        code = run(["generate", "--d-e", 1.0, "--r-e", 0.0,
                    "--out", tmp_path / "g.txt"])
        assert code == 2


class TestSimulate:
    def test_pipeline_files(self, tmp_path):
        g, ts = tmp_path / "g.txt", tmp_path / "ts.txt"
        run(["generate", "--seed", 1, "--out", g])
        assert run(["simulate", "--graph", g, "--seed", 2, "--out", ts]) == 0
        loaded = load_time_series(str(ts))
        assert loaded.n == 10 and loaded.n_obs == 1000

    def test_byte_determinism(self, tmp_path):
        g = tmp_path / "g.txt"
        run(["generate", "--seed", 1, "--out", g])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["simulate", "--graph", g, "--seed", 2, "--out", a])
        run(["simulate", "--graph", g, "--seed", 2, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "nan"), ("--tau", "inf"), ("--dt", "nan"), ("--sigma", "nan"),
        ("--eta", "inf"), ("--burn-in", "nan"),
    ])
    def test_non_finite_parameter_exits_2(self, flag, value, tmp_path, capsys):
        g, ts = tmp_path / "g.txt", tmp_path / "ts.txt"
        run(["generate", "--seed", 1, "--out", g])
        assert run(["simulate", "--graph", g, flag, value, "--out", ts]) == 2
        assert not ts.exists()
        assert "must be finite" in capsys.readouterr().err

    def test_missing_graph_exits_4(self, tmp_path):
        assert run(["simulate", "--graph", tmp_path / "nope.txt",
                    "--out", tmp_path / "ts.txt"]) == 4

    def test_absurd_node_count_exits_4(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("100000000000000000000 1 0\n0 1 0\n")
        assert run(["simulate", "--graph", g, "--out", tmp_path / "ts.txt"]) == 4
        assert "n=100000000000000000000" in capsys.readouterr().err


class TestInfer:
    def make_inputs(self, tmp_path):
        g, ts = tmp_path / "g.txt", tmp_path / "ts.txt"
        run(["generate", "--seed", 1, "--out", g])
        run(["simulate", "--graph", g, "--seed", 2, "--out", ts])
        return g, ts

    def test_auto_mode_emits_accuracy(self, tmp_path, capsys):
        g, ts = self.make_inputs(tmp_path)
        out = tmp_path / "pem.txt"
        code = run(["infer", "--ts", ts, "--pem", "lcrc", "--dt-tau", "auto",
                    "--truth", g, "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "accuracy=" in text
        pem = load_pem(str(out))
        assert pem.kind == "lcrc"

    def test_explicit_m_and_edges_out(self, tmp_path):
        _, ts = self.make_inputs(tmp_path)
        out, edges = tmp_path / "pem.txt", tmp_path / "inferred.txt"
        code = run(["infer", "--ts", ts, "--pem", "lc", "--m", 45,
                    "--edges-out", edges, "--out", out])
        assert code == 0
        assert load_edge_list(str(edges)).m == 45

    def test_degenerate_data_exits_3(self, tmp_path):
        g = tmp_path / "g.txt"
        ts = tmp_path / "ts.txt"
        run(["generate", "--seed", 1, "--out", g])
        run(["simulate", "--graph", g, "--sigma", 0.0, "--seed", 2, "--out", ts])
        assert run(["infer", "--ts", ts, "--pem", "lc",
                    "--out", tmp_path / "pem.txt"]) == 3

    @pytest.mark.parametrize("header", ["10 1000 0", "10 1000 -1", "-1 1000 0.5"])
    def test_malformed_header_exits_4(self, tmp_path, capsys, header):
        _, ts = self.make_inputs(tmp_path)
        rows = ts.read_text().splitlines()[1:]
        ts.write_text("\n".join([header, *rows]) + "\n")
        assert run(["infer", "--ts", ts, "--pem", "lcrc", "--dt-tau", "auto",
                    "--out", tmp_path / "pem.txt"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ":1: bad header" in err

    def test_gc_measure(self, tmp_path):
        g, ts = self.make_inputs(tmp_path)
        out = tmp_path / "pem.txt"
        assert run(["infer", "--ts", ts, "--pem", "gc", "--truth", g,
                    "--out", out]) == 0


class TestSweepCommand:
    def test_single_cell_matches_run_trial(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--trials", 1, "--seed", 7, "--pems", "lcrc",
                    "--out", out])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        direct = run_trial(GraphConfig(), SDDParams(), ["lcrc"],
                           seed=derive_seed(7, 0, 0))
        assert f"{direct[0].accuracy:.10g}" == rows[1].split(",")[15]

    def test_accuracy_column_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--dt-list", "0.5,1.0", "--trials", 2, "--seed", 3,
                "--pems", "lcrc,lc"]
        run(args + ["--out", a])
        run(args + ["--out", b])
        cols_a = [r.split(",")[:16] for r in a.read_text().splitlines()]
        cols_b = [r.split(",")[:16] for r in b.read_text().splitlines()]
        assert cols_a == cols_b

    def test_jobs_flag_preserves_content(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--n-list", "5,8", "--trials", 2, "--seed", 4,
                "--pems", "lcrc"]
        run(base + ["--jobs", 1, "--out", a])
        run(base + ["--jobs", 2, "--out", b])
        strip = lambda p: [r.split(",")[:16] for r in p.read_text().splitlines()]
        assert strip(a) == strip(b)


class TestMotifTable:
    def test_var1_zeroes_off_balanced_motifs(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["motif-table", "--dt-tau", 1, "--k-list", "0",
                    "--lmax", 3, "--out", out]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            _, l_b, l_f, value, _ = line.split(",")
            if l_b != l_f:
                assert float(value) == 0.0

    def test_continuous_proxy_argmax(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        run(["motif-table", "--dt-tau", 0.0001, "--k-list", "0", "--lmax", 3,
             "--out", out])
        peaks = {
            tuple(map(int, line.split(",")[1:3]))
            for line in out.read_text().strip().splitlines()[1:]
            if line.split(",")[4] == "1"
        }
        assert peaks == {(0, 1), (1, 0)}

    def test_lag3_argmax(self, tmp_path):
        out = tmp_path / "t.csv"
        run(["motif-table", "--dt-tau", 0.8, "--k-list", "3", "--lmax", 4,
             "--out", out])
        peaks = {
            tuple(map(int, line.split(",")[1:3]))
            for line in out.read_text().strip().splitlines()[1:]
            if line.split(",")[4] == "1"
        }
        assert peaks == {(0, 3)}

    def test_bad_lmax_exits_2(self, tmp_path):
        assert run(["motif-table", "--lmax", 13, "--out", tmp_path / "t.csv"]) == 2


class TestBenchTime:
    def test_gc_slower_at_desk_scale(self, tmp_path):
        out = tmp_path / "timing.csv"
        code = run(["bench-time", "--pems", "lcrc,lccf,lc,gc", "--n-list", "10",
                    "--n-obs-list", "1000", "--delta-hat-list", "0",
                    "--trials", 5, "--seed", 0, "--out", out])
        assert code == 0
        times = {}
        for line in out.read_text().strip().splitlines()[1:]:
            parts = line.split(",")
            times.setdefault(parts[4], []).append(float(parts[7]))
        assert np.median(times["gc"]) > np.median(times["lcrc"])


class TestConfigurationErrors:
    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--pems", "lcrc,foo", "--trials", 1], "unknown PEM kind 'foo'"),
        (["bench-time", "--pems", "foo", "--trials", 1], "unknown PEM kind 'foo'"),
        (["bench-time", "--trials", 0], "need trials >= 1"),
        (["sweep", "--jobs", 0, "--trials", 1], "need jobs >= 1"),
        (["sweep", "--jobs", -2, "--trials", 1], "need jobs >= 1"),
        (["bench-time", "--n-list", "", "--n-obs-list", "", "--delta-hat-list", "",
          "--trials", 1], "timing grid is empty"),
        (["sweep", "--eps-list", "0.5,-1", "--trials", 200],
         "coupling strength must be >= 0"),
        (["sweep", "--eps-list", "nan"], "eps must be finite"),
        (["sweep", "--tau-list", "1,inf"], "tau must be finite"),
        (["bench-time", "--n-list", "10,1", "--trials", 1], "need n >= 2"),
    ])
    def test_exit_2_before_any_trial(self, argv, message, tmp_path, capsys,
                                     monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before the configuration error")

        monkeypatch.setattr(bench, "run_trial", no_trial)
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", out]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err


class TestCliContract:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--bogus", 1])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["infer", "--ts", "ts.txt", "--dt-tau", "abc", "--out", "pem.txt"],
        ["sweep", "--n-list", "10,x", "--out", "sweep.csv"],
        ["sweep", "--dt-list", "0.5,fast", "--out", "sweep.csv"],
        ["motif-table", "--k-list", "0,one", "--out", "t.csv"],
        ["motif-table", "--dt-tau", "half", "--out", "t.csv"],
        ["bench-time", "--n-list", "10,2x", "--out", "timing.csv"],
        ["bench-time", "--n-obs-list", "1e3", "--out", "timing.csv"],
    ])
    def test_malformed_number_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert "error: argument --" in capsys.readouterr().err

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for token in ("0.9", "1.0", "0.5", "0.2", "1000"):
            assert token in text
