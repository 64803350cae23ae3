import argparse
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from pemnet import bench
from pemnet.bench import derive_seed, run_trial
from pemnet.cli import build_parser, main
from pemnet.dynamics import SDDParams, TimeSeries, load_time_series, save_time_series
from pemnet.graphs import GraphConfig, load_edge_list, save_edge_list
from pemnet.pem import load_pem, save_pem


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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run(["generate", "--seed", -1, "--out", out]) == 2
        assert not out.exists()
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err


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
        ("--eta", "inf"),
    ])
    def test_non_finite_parameter_exits_2(self, flag, value, tmp_path, capsys):
        g, ts = tmp_path / "g.txt", tmp_path / "ts.txt"
        run(["generate", "--seed", 1, "--out", g])
        assert run(["simulate", "--graph", g, flag, value, "--out", ts]) == 2
        assert not ts.exists()
        assert "must lie in" in capsys.readouterr().err

    def test_burn_in_flag_is_gone(self, tmp_path):
        # the burn-in follows from the spectral radius; there is no knob for it
        g = tmp_path / "g.txt"
        run(["generate", "--seed", 1, "--out", g])
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--graph", g, "--burn-in", 5, "--out", tmp_path / "ts.txt"])
        assert err.value.code == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        g, ts = tmp_path / "g.txt", tmp_path / "ts.txt"
        run(["generate", "--seed", 1, "--out", g])
        assert run(["simulate", "--graph", g, "--seed", -3, "--out", ts]) == 2
        assert not ts.exists()
        assert "--seed must be >= 0, got -3" in capsys.readouterr().err

    def test_missing_graph_exits_4(self, tmp_path):
        assert run(["simulate", "--graph", tmp_path / "nope.txt",
                    "--out", tmp_path / "ts.txt"]) == 4

    def test_absurd_node_count_exits_4(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("100000000000000000000 1 0\n0 1 0\n")
        assert run(["simulate", "--graph", g, "--out", tmp_path / "ts.txt"]) == 4
        assert "n=100000000000000000000" in capsys.readouterr().err

    def test_unallocatable_n_obs_exits_2(self, tmp_path, capsys):
        # numpy refuses this size before it allocates anything
        g, ts = tmp_path / "g.txt", tmp_path / "ts.txt"
        run(["generate", "--n", 5, "--seed", 1, "--out", g])
        assert run(["simulate", "--graph", g, "--n-obs", 10**18, "--out", ts]) == 2
        assert not ts.exists()
        assert "cannot hold the noise for n_obs=1000000000000000000 at n=5" in \
            capsys.readouterr().err


class TestInfer:
    def make_inputs(self, tmp_path):
        g, ts = tmp_path / "g.txt", tmp_path / "ts.txt"
        run(["generate", "--seed", 1, "--out", g])
        run(["simulate", "--graph", g, "--seed", 2, "--out", ts])
        return g, ts

    def test_auto_mode_emits_accuracy(self, tmp_path, capsys):
        g, ts = self.make_inputs(tmp_path)
        capsys.readouterr()
        out = tmp_path / "pem.txt"
        code = run(["infer", "--ts", ts, "--pem", "lcrc", "--dt-tau", "auto",
                    "--truth", g, "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "accuracy=" in text
        pem = load_pem(str(out))
        assert pem.kind == "lcrc"
        # the echo resolves m from --truth, and auto to the estimated dt/tau
        assert f" dt-tau=auto delta-hat=0 m=45 truth={g} edges-out=None " in text
        assert (f" alpha={pem.params['alpha']:.10g} delta_hat=0 "
                f"dt_tau={pem.params['dt_tau']:.10g} flags=none ") in text

    def test_explicit_m_and_edges_out(self, tmp_path, capsys):
        _, ts = self.make_inputs(tmp_path)
        out, edges = tmp_path / "pem.txt", tmp_path / "inferred.txt"
        code = run(["infer", "--ts", ts, "--pem", "lc", "--m", 45,
                    "--edges-out", edges, "--out", out])
        assert code == 0
        assert load_edge_list(str(edges)).m == 45
        text = capsys.readouterr().out
        assert f" m=45 truth=None edges-out={edges} " in text and " n=10 flags=none " in text

    def test_edges_out_without_edge_count_exits_2_before_scoring(self, tmp_path, capsys):
        # it once exited 0 and wrote no edge list
        _, ts = self.make_inputs(tmp_path)
        out, edges = tmp_path / "pem.txt", tmp_path / "inferred.txt"
        assert run(["infer", "--ts", ts, "--pem", "lccf", "--edges-out", edges,
                    "--out", out]) == 2
        assert not out.exists() and not edges.exists()
        assert "--edges-out needs an edge count: pass --m or --truth" in capsys.readouterr().err

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

    def test_m_disagreeing_with_truth_exits_2(self, tmp_path, capsys):
        g, ts = self.make_inputs(tmp_path)
        out = tmp_path / "pem.txt"
        assert run(["infer", "--ts", ts, "--pem", "lccf", "--m", 30, "--truth", g,
                    "--out", out]) == 2
        assert not out.exists()
        assert "--m 30 disagrees with the 45 edges" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [0, 91, 500])
    def test_edge_count_out_of_range_exits_2_before_scoring(self, tmp_path, capsys, m):
        _, ts = self.make_inputs(tmp_path)
        out = tmp_path / "pem.txt"
        assert run(["infer", "--ts", ts, "--pem", "lc", "--m", m, "--out", out]) == 2
        assert not out.exists()
        assert f"edge count {m} outside [1, 90]" in capsys.readouterr().err

    def test_truth_of_another_size_exits_2_before_scoring(self, tmp_path, capsys):
        _, ts = self.make_inputs(tmp_path)
        g12, out = tmp_path / "g12.txt", tmp_path / "pem.txt"
        run(["generate", "--n", 12, "--seed", 3, "--out", g12])
        assert run(["infer", "--ts", ts, "--truth", g12, "--out", out]) == 2
        assert not out.exists()
        assert "size mismatch: series n=10, truth n=12" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--delta-hat", 600], "lcrc at delta_hat=600 reads lag 601: needs N >= 603, got N=500"),
        (["--pem", "gc", "--delta-hat", 169], "gc at p_hat=170 needs N >= 520, got N=500"),
    ], ids=["lcrc", "gc"])
    def test_series_too_short_for_the_lag_exits_3(self, tmp_path, capsys, argv, message):
        ts, out = tmp_path / "ts.txt", tmp_path / "pem.txt"
        values = np.random.default_rng(35).standard_normal((500, 3))
        save_time_series(TimeSeries(values=values, dt=1.0), str(ts))
        assert run(["infer", "--ts", ts, *argv, "--out", out]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_dt_tau_estimate_exits_3(self, tmp_path, capsys):
        # finite values whose squares overflow: the lag covariances are inf
        ts, out = tmp_path / "ts.txt", tmp_path / "pem.txt"
        values = np.random.default_rng(36).standard_normal((200, 3)) * 1e160
        save_time_series(TimeSeries(values=values, dt=1.0), str(ts))
        assert run(["infer", "--ts", ts, "--pem", "lccf", "--out", out]) == 3
        assert "node 0 has variance inf" in capsys.readouterr().err
        assert not out.exists()

    def test_gc_measure(self, tmp_path):
        g, ts = self.make_inputs(tmp_path)
        out = tmp_path / "pem.txt"
        assert run(["infer", "--ts", ts, "--pem", "gc", "--truth", g,
                    "--out", out]) == 0


class TestFileFormats:
    def test_every_format_round_trips_byte_for_byte(self, tmp_path):
        # one table reader parses all three formats; a load and a save give the
        # same bytes back, and a second load the same bits
        g, ts, pem = tmp_path / "g.txt", tmp_path / "ts.txt", tmp_path / "pem.txt"
        run(["generate", "--seed", 1, "--delta", 3, "--out", g])
        run(["simulate", "--graph", g, "--seed", 2, "--n-obs", 300, "--out", ts])
        run(["infer", "--ts", ts, "--pem", "lcrc", "--dt-tau", "auto", "--delta-hat", 3,
             "--truth", g, "--out", pem])
        formats = [(g, load_edge_list, save_edge_list, lambda x: x.lag),
                   (ts, load_time_series, save_time_series, lambda x: x.values),
                   (pem, load_pem, save_pem, lambda x: x.values)]
        for path, load, save, table in formats:
            first = load(str(path))
            again = tmp_path / f"again-{path.name}"
            save(first, str(again))
            assert again.read_bytes() == path.read_bytes()
            a, b = table(first), table(load(str(again)))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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

    def test_unallocatable_cell_becomes_error_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--n-list", 5, "--n-obs-list", f"1000,{10**18}",
                    "--trials", 2, "--out", out]) == 0
        header, *rows = [r.split(",") for r in out.read_text().splitlines()]
        n_obs, error = header.index("N"), header.index("error")
        assert [r[n_obs] for r in rows] == ["1000", "1000", str(10**18), str(10**18)]
        assert [r[error] for r in rows[:2]] == ["", ""]
        for row in rows[2:]:
            assert row[error].startswith(
                "simulate: cannot hold the noise for n_obs=1000000000000000000 at n=5")


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
        # the timing table is a sweep: every row has its measure's wall time
        out = tmp_path / "timing.csv"
        code = run(["sweep", "--pems", "lcrc,lccf,lc,gc", "--n-list", "10",
                    "--n-obs-list", "1000", "--delta-hat-list", "0",
                    "--trials", 5, "--seed", 0, "--out", out])
        assert code == 0
        header, *rows = out.read_text().strip().splitlines()
        pem, wall = header.split(",").index("pem"), header.split(",").index("wall_time_s")
        times = {}
        for line in rows:
            parts = line.split(",")
            times.setdefault(parts[pem], []).append(float(parts[wall]))
        assert np.median(times["gc"]) > np.median(times["lcrc"])

    def test_bench_time_command_is_gone(self, tmp_path):
        # sweep writes the same timings; there is no second timing command
        with pytest.raises(SystemExit) as err:
            run(["bench-time", "--out", tmp_path / "timing.csv"])
        assert err.value.code == 2


class TestConfigurationErrors:
    # a case keeps its id when its message is reworded
    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--pems", "lcrc,foo", "--trials", 1], "unknown PEM kind 'foo'"),
        (["sweep", "--pems", "foo", "--n-list", "10,20", "--trials", 1],
         "unknown PEM kind 'foo'"),
        pytest.param(["sweep", "--trials", 0], "trials must be >= 1",
                     id="argv2-need trials >= 1"),
        pytest.param(["sweep", "--jobs", 0, "--trials", 1], "jobs must be >= 1",
                     id="argv3-need jobs >= 1"),
        pytest.param(["sweep", "--jobs", -2, "--trials", 1], "jobs must be >= 1",
                     id="argv4-need jobs >= 1"),
        (["sweep", "--delta-hat-list", "-1", "--trials", 2], "delta_hat must be >= 0"),
        pytest.param(["motif-table", "--n", 0], "n must be >= 1, got 0",
                     id="argv6-got n=0, tau=1.0"),
        pytest.param(["sweep", "--eps-list", "0.5,-1", "--trials", 200],
                     "eps must lie in [0, inf), got -1.0",
                     id="argv7-coupling strength must be >= 0"),
        pytest.param(["sweep", "--eps-list", "nan"], "eps must lie in [0, inf), got nan",
                     id="argv8-eps must be finite"),
        pytest.param(["sweep", "--tau-list", "1,inf"], "tau must lie in (0, inf), got inf",
                     id="argv9-tau must be finite"),
        pytest.param(["sweep", "--n-list", "10,1", "--trials", 1], "n must be >= 2, got 1",
                     id="argv10-need n >= 2"),
        pytest.param(["motif-table", "--n", -3, "--tau", -1], "n must be >= 1, got -3",
                     id="argv11-got n=-3, tau=-1.0"),
        pytest.param(["motif-table", "--tau", -1], "tau must lie in (0, inf), got -1.0",
                     id="argv12-need n >= 1, tau > 0"),
        pytest.param(["motif-table", "--tau", 0], "tau must lie in (0, inf), got 0.0",
                     id="argv13-tau=0.0,"),
        pytest.param(["motif-table", "--sigma", -0.5], "sigma must lie in [0, inf), got -0.5",
                     id="argv14-sigma=-0.5,"),
        pytest.param(["motif-table", "--eps", -0.1], "eps must lie in [0, inf), got -0.1",
                     id="argv15-eps=-0.1"),
        pytest.param(["motif-table", "--eps", "nan"], "eps must lie in [0, inf), got nan",
                     id="argv16-eps must be finite, got nan"),
        pytest.param(["motif-table", "--tau", "inf"], "tau must lie in (0, inf), got inf",
                     id="argv17-tau must be finite, got inf"),
        pytest.param(["motif-table", "--sigma=-inf"], "sigma must lie in [0, inf), got -inf",
                     id="argv18-sigma must be finite, got -inf"),
        pytest.param(["motif-table", "--dt-tau", "nan"], "dt/tau must lie in (0, 1], got nan",
                     id="argv19-dt_tau must be finite, got nan"),
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
        ["sweep", "--n-list", "10,2x", "--out", "timing.csv"],
        ["sweep", "--n-obs-list", "1e3", "--out", "timing.csv"],
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

    @pytest.mark.parametrize("command, config_cls, skipped", [
        ("generate", GraphConfig, ()),
        ("simulate", SDDParams, ("delta",)),  # simulate reads delta from its graph
    ])
    def test_flags_follow_config_fields(self, command, config_cls, skipped):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in subparsers.choices[command]._actions}
        types = get_type_hints(config_cls)
        for field in fields(config_cls):
            if field.name in skipped:
                assert field.name not in actions
                continue
            action = actions[field.name]
            assert action.option_strings == ["--" + field.name.replace("_", "-")]
            assert action.default == field.default
            assert action.type is type(action.default) is types[field.name]


class TestRuntimeDependencies:
    def test_package_and_parser_load_numpy_only(self):
        # numpy is the one runtime dependency; test-only packages and the test
        # oracles must not be reachable from the package, and the process pool
        # loads only for --jobs > 1
        code = ("import sys, pemnet.cli; pemnet.cli.build_parser(); "
                "print(sorted({name.split('.')[0] for name in sys.modules} "
                "& {'scipy', 'networkx', 'pytest', 'oracles', 'concurrent', "
                "'multiprocessing'}))")
        src = Path(__file__).resolve().parents[1] / "src"
        # the tests directory is on the path, so a leaked import is seen, not a crash
        path = os.pathsep.join([str(src), str(Path(__file__).parent)])
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, cwd=src, check=True)
        assert done.stdout.strip() == "[]"


def readme_commands():
    """The pemnet commands of the README's "Command line" block, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("pemnet ")]


class TestReadmeCommands:
    def test_every_documented_command_runs(self, tmp_path, monkeypatch):
        # a flag removed from the CLI but still shown in the README fails here
        commands = readme_commands()
        assert [argv[0] for argv in commands] == [
            "generate", "simulate", "infer", "sweep", "motif-table", "sweep"]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == 0, argv
