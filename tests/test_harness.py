import csv
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from crossinglab.errors import ConfigError, NoMinimaFound
from crossinglab.harness.cli import main
from crossinglab.harness.sweep import (
    CSV_COLUMNS,
    DEMO_POTENTIAL,
    NUMERIC_COLUMNS,
    SweepConfig,
    build_rows,
    run_sweep,
    scan_interference,
    write_csv,
)
from crossinglab.harness.verify import run_verify
from crossinglab.potential import find_crossings, model_from_config
from crossinglab.potential.catalog import TAIL_LEVEL, regularized_actions


def cli_main(argv: list[str]) -> int:
    """The CLI as its console script runs it, on the command line ``argv``."""
    with mock.patch.object(sys, "argv", ["crossinglab", *argv]):
        return main()


TANH_PAIR_DOC = {
    "family": "scaled_tanh_product",
    "params": {"scale": 1.0, "factors": [
        {"power": 3, "slope": 1.0, "center": 2.0},
        {"power": 3, "slope": 1.0, "center": -2.0},
    ]},
}

CUBIC_DOC = {
    "family": "scaled_tanh_product",
    "params": {"scale": 1.0, "factors": [{"power": 3, "slope": 1.0, "center": 0.0}]},
}

# V = 1 + t^2 inside the window: never zero
NO_CROSSING_DOC = {"family": "polynomial_windowed",
                   "params": {"coefficients": [1.0, 0.0, 1.0], "window": 3.0}}


class TestConfigAndRows:
    def test_ladder_rows(self):
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "h_ladder", "h_values": [0.2, 0.1, 0.05],
                  "eps_rule": {"type": "power", "coeff": 0.05, "exponent": 0.75}},
        )
        rows = build_rows(config)
        assert len(rows) == 3
        assert rows[0] == (0.05 * 0.2**0.75, 0.2)

    def test_log_path_rule(self):
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "h_ladder", "h_values": [1e-2, 1e-3],
                  "eps_rule": {"type": "log_path", "rho": 0.5, "m": 3}},
        )
        (eps1, h1), _ = build_rows(config)
        assert eps1 == pytest.approx((h1 * math.log(1 / h1**0.5)) ** 0.75)

    def test_log_path_rule_with_h_rho_underflowing(self):
        """h^rho below the float range still gives the finite eps."""
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "h_ladder", "h_values": [1e-2],
                  "eps_rule": {"type": "log_path", "rho": 200, "m": 3}},
        )
        [(eps, h)] = build_rows(config)
        assert eps == pytest.approx((h * 200 * math.log(1 / h)) ** 0.75, rel=1e-14)

    def test_non_monotone_rejected(self):
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "h_ladder", "h_values": [0.1, 0.2, 0.15]},
        )
        with pytest.raises(ConfigError):
            build_rows(config)

    def test_from_json_round_trip(self, tmp_path):
        doc = {"potential": CUBIC_DOC,
               "grid": {"type": "list", "rows": [{"eps": 0.01, "h": 0.05}]},
               "oracles": ["numeric"], "tol": 1e-8, "label": "t"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        config = SweepConfig.from_json(str(path))
        assert config.label == "t"
        assert config.oracles == ("numeric",)

    @pytest.mark.parametrize("grid,match", [
        *[({"type": "list", "rows": [row]}, "need h > 0") for row in (
            {"eps": 0.01, "h": 0.0}, {"eps": 0.01, "h": -0.1}, {"eps": -0.01, "h": 0.1},
            {"eps": float("nan"), "h": 0.1}, {"eps": 0.01, "h": float("inf")})],
        ({"type": "list"}, "missing field 'rows'"),
        ({"type": "list", "rows": [{"eps": 0.01}]}, "missing field 'h'"),
        ({"type": "h_ladder", "h_values": [0.1, 0.05],
          "eps_rule": {"type": "power", "coeff": "abc", "exponent": 0.75}}, "bad field 'coeff'"),
        ({"type": "h_ladder", "h_values": [2.0, 1.5],
          "eps_rule": {"type": "log_path", "rho": 1, "m": 3}}, "eps rule 'log_path'"),
        ({"type": "h_ladder", "h_values": [2.0, 1.5],
          "eps_rule": {"type": "log_path", "rho": 1100, "m": 3}}, "eps rule 'log_path'")],
        ids=["h_zero", "h_negative", "eps_negative", "eps_nan", "h_inf",
             "rows_missing", "h_missing", "coeff_not_a_number", "log_path_above_h_1",
             "log_path_h_rho_overflows"])
    def test_bad_rows_rejected(self, grid, match, tmp_path, capsys):
        """Refused with the field named, and the CLI commands that read the
        grid exit with the configuration code."""
        config = SweepConfig(potential=CUBIC_DOC, grid=grid)
        with pytest.raises(ConfigError, match=match):
            build_rows(config)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"potential": CUBIC_DOC, "grid": grid}))
        for command in ("sweep", "interfere"):
            assert cli_main([command, "--config", str(path)]) == 2
        assert match in capsys.readouterr().err

    def test_bad_ladder_rows_rejected(self):
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "h_ladder", "h_values": [0.1, 0.0, -0.1],
                  "eps_rule": {"type": "fixed", "value": 0.05}},
        )
        with pytest.raises(ConfigError, match="need h > 0"):
            build_rows(config)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_json({"grid": {}})

    @pytest.mark.parametrize("jobs", [0, -3, 1.7, 2.0, True, "2", None],
                             ids=["zero", "negative", "fraction", "float", "bool",
                                  "string", "null"])
    def test_bad_jobs_rejected(self, jobs):
        """jobs must be an integer >= 1; nothing is rounded or replaced."""
        doc = {"potential": CUBIC_DOC,
               "grid": {"type": "list", "rows": [{"eps": 0.01, "h": 0.05}]},
               "jobs": jobs}
        with pytest.raises(ConfigError, match="jobs"):
            SweepConfig.from_json(doc)

    def test_unknown_oracle_rejected(self):
        doc = {"potential": CUBIC_DOC,
               "grid": {"type": "list", "rows": [{"eps": 0.01, "h": 0.05}]},
               "oracles": ["numerc"]}
        with pytest.raises(ConfigError, match="numerc"):
            SweepConfig.from_json(doc)


@pytest.fixture(scope="module")
def small_config():
    return SweepConfig(
        potential=CUBIC_DOC,
        grid={"type": "h_ladder", "h_values": [0.1, 0.05],
              "eps_rule": {"type": "power", "coeff": 0.05, "exponent": 0.75}},
        oracles=("numeric", "nonadiabatic", "chain"),
        tol=1e-8,
    )


class TestRunSweep:
    def test_rows_complete(self, small_config):
        rows = run_sweep(small_config)
        assert len(rows) == 2
        for row in rows:
            assert row["status"] == "ok"
            assert 0.0 <= row["P_numeric"] <= 1.0
            assert abs(row["P_numeric"] - row["P_nonadiabatic"]) < 0.05
            assert row["residual_nonadiabatic"] < 0.05

    def test_deterministic_and_parallel_identical(self, small_config, tmp_path):
        rows1 = run_sweep(small_config)
        rows2 = run_sweep(small_config)
        par = SweepConfig(**{**small_config.__dict__, "jobs": 2})
        rows3 = run_sweep(par)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        p3 = tmp_path / "c.csv"
        write_csv(rows1, str(p1))
        write_csv(rows2, str(p2))
        write_csv(rows3, str(p3))
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    def test_failures_recorded_not_raised(self):
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "list", "rows": [{"eps": 0.5, "h": 0.001}]},
            oracles=("nonadiabatic",),
        )
        rows = run_sweep(config)
        assert rows[0]["status"] == "failed"
        assert rows[0]["error"].startswith("nonadiabatic: RegimeViolation: ")

    def test_potential_without_crossing(self):
        """mu_star is left empty and the nonadiabatic closed form refuses the
        row typed, so the numeric P still makes it partial."""
        config = SweepConfig(
            potential=NO_CROSSING_DOC,
            grid={"type": "list", "rows": [{"eps": 0.1, "h": 0.05}]},
            oracles=("numeric", "nonadiabatic"))
        (row,) = run_sweep(config)
        assert row["status"] == "partial"
        assert row["mu_star"] == ""
        assert 0.0 <= row["P_numeric"] < 1e-12
        assert row["error"].startswith("nonadiabatic: MStarTooSmall: ")

    def test_programming_errors_propagate(self, monkeypatch):
        """Only CrossingLabError becomes a failed row; the table looks its
        callees up by name, so the patched one runs."""
        import crossinglab.harness.sweep as sweep_module

        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(sweep_module, "predict_nonadiabatic", broken)
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "list", "rows": [{"eps": 0.0005, "h": 0.002}]},
            oracles=("nonadiabatic",),
        )
        with pytest.raises(ValueError, match="bug"):
            run_sweep(config)

    @staticmethod
    def _pid_rows(monkeypatch, fail_in=None, jobs=2, n_rows=8, in_worker=None, log=None):
        """A sweep of ``n_rows`` rows (row i at eps = 5e-4 + 1e-6 i) whose
        nonadiabatic P is the pid of the process that computed the row;
        ``fail_in`` ("caller" or "worker") raises a programming error there,
        ``in_worker`` runs before each worker row, and each computed eps is
        appended to the file ``log``.  Worker rows take 5 ms, so the caller
        claims the back rows long before the workers could reach them.  A
        sweep that takes over 60 s raises TimeoutError."""
        import crossinglab.harness.sweep as sweep_module

        caller = os.getpid()

        def whose(model, catalog, eps, h):
            in_caller = os.getpid() == caller
            if log is not None:
                fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
                os.write(fd, f"{eps!r}\n".encode())
                os.close(fd)
            if not in_caller:
                if in_worker is not None:
                    in_worker()
                time.sleep(0.005)
            if fail_in is not None and in_caller == (fail_in == "caller"):
                raise ValueError("bug")
            return SimpleNamespace(p_pred=float(os.getpid()))

        def late(signum, frame):
            raise TimeoutError("the sweep took over 60 s")

        monkeypatch.setattr(sweep_module, "predict_nonadiabatic", whose)
        previous = signal.signal(signal.SIGALRM, late)
        signal.alarm(60)
        try:
            return run_sweep(SweepConfig(
                potential=CUBIC_DOC,
                grid={"type": "list",
                      "rows": [{"eps": 5e-4 + 1e-6 * i, "h": 0.002} for i in range(n_rows)]},
                oracles=("nonadiabatic",), jobs=jobs))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_caller_and_worker_share_the_rows(self, monkeypatch):
        """At jobs=2 the worker takes rows from the front and the caller
        from the back; each row once, in index order, and no child is left."""
        rows = self._pid_rows(monkeypatch)
        assert [row["index"] for row in rows] == list(range(8))
        pids = [row["P_nonadiabatic"] for row in rows]
        caller = float(os.getpid())
        assert pids[0] != caller and pids[-1] == caller
        first = pids.index(caller)
        assert set(pids[:first]) == {pids[0]} and set(pids[first:]) == {caller}
        assert multiprocessing.active_children() == []

    def test_caller_and_two_workers_share_the_rows(self, monkeypatch, tmp_path):
        """At jobs=3 rows 0 and 1 go to two distinct workers, the caller's
        rows form a block at the back, and each row is computed once and
        comes back once, in index order."""
        log = tmp_path / "computed"
        rows = self._pid_rows(monkeypatch, jobs=3, n_rows=12, log=str(log))
        assert [row["index"] for row in rows] == list(range(12))
        assert sorted(float(x) for x in log.read_text().split()) == \
            [row["eps"] for row in rows]
        pids = [row["P_nonadiabatic"] for row in rows]
        caller = float(os.getpid())
        assert caller not in pids[:2] and pids[0] != pids[1]
        first = pids.index(caller)
        assert set(pids[:first]) == {pids[0], pids[1]}
        assert set(pids[first:]) == {caller}
        assert multiprocessing.active_children() == []

    def test_no_more_processes_than_rows(self, monkeypatch):
        """jobs=4 on two rows forks one worker: it takes row 0, the caller
        row 1."""
        rows = self._pid_rows(monkeypatch, jobs=4, n_rows=2)
        pids = [row["P_nonadiabatic"] for row in rows]
        assert pids[0] != float(os.getpid()) and pids[1] == float(os.getpid())

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_programming_errors_propagate_at_two_jobs(self, monkeypatch, where):
        """A programming error in a worker's row or in the caller's propagates,
        and no worker is left when it does."""
        with pytest.raises(ValueError, match="bug"):
            self._pid_rows(monkeypatch, fail_in=where)
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises(self, monkeypatch):
        """A worker that exits without sending its rows is named by its exit
        code; the sweep neither hangs nor leaves a child."""
        with pytest.raises(RuntimeError, match="^sweep worker exited with code 3 "
                                               "before sending its rows$"):
            self._pid_rows(monkeypatch, in_worker=lambda: os._exit(3))
        assert multiprocessing.active_children() == []

    def test_unpicklable_worker_error_raises(self, monkeypatch):
        """An error that cannot be sent back ends the worker with code 1,
        and the caller says so."""
        def unpicklable():
            raise ValueError(lambda: None)

        with pytest.raises(RuntimeError, match="^sweep worker exited with code 1 "):
            self._pid_rows(monkeypatch, in_worker=unpicklable)
        assert multiprocessing.active_children() == []

    def test_model_and_catalog_built_once(self, monkeypatch):
        """Rows share one model and catalog, looked up by module name."""
        import crossinglab.harness.sweep as sweep_module

        calls = {"model_from_config": 0, "find_crossings": 0}

        def counted(name):
            original = getattr(sweep_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sweep_module, name, counted(name))
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "h_ladder", "h_values": [0.01, 0.005, 0.002],
                  "eps_rule": {"type": "power", "coeff": 0.05, "exponent": 0.75}},
            oracles=("nonadiabatic",))
        rows = run_sweep(config)
        assert [row["status"] for row in rows] == ["ok"] * 3
        assert calls == {"model_from_config": 1, "find_crossings": 1}

    def test_empty_grid(self):
        config = SweepConfig(potential=CUBIC_DOC,
                             grid={"type": "list", "rows": []})
        assert run_sweep(config) == []

    def test_csv_schema(self, small_config, tmp_path):
        rows = run_sweep(small_config)
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        header = path.read_text().splitlines()[0]
        assert header.split(",")[:5] == ["index", "eps", "h", "mu_star", "status"]

    def test_csv_quotes_error_cells(self, tmp_path):
        """A partial row's error holds the band message's comma: read back
        with csv.reader, every row has one cell per column; a comma-free row
        is its cells joined by commas, as before."""
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "list", "rows": [{"eps": 0.05 * 0.1**0.75, "h": 0.1},
                                           {"eps": 0.1**0.75, "h": 0.1}]},
            oracles=("numeric", "chain"), tol=1e-8)
        rows = run_sweep(config)
        assert [row["status"] for row in rows] == ["ok", "partial"]
        assert ", below" in rows[1]["error"]
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        with open(path, newline="") as fh:
            header, *cells = list(csv.reader(fh))
        assert header == list(CSV_COLUMNS)
        assert [len(line) for line in cells] == [len(CSV_COLUMNS)] * 2
        assert cells[1][CSV_COLUMNS.index("error")] == rows[1]["error"]
        assert path.read_text().splitlines()[1] == ",".join(cells[0])

    def test_numeric_route_columns(self, tmp_path):
        """Schema 2 says how P_numeric was obtained, identically for any jobs."""
        config = SweepConfig(
            potential=TANH_PAIR_DOC,
            grid={"type": "h_ladder", "h_values": [0.1, 1e-2, 1e-3, 1e-4],
                  "eps_rule": {"type": "power", "coeff": 0.05, "exponent": 0.75}},
            oracles=("numeric",), tol=1e-9)
        tables = {jobs: run_sweep(SweepConfig(**{**config.__dict__, "jobs": jobs}))
                  for jobs in (1, 2, 3, 4)}
        for jobs, table in tables.items():
            write_csv(table, str(tmp_path / f"jobs{jobs}.csv"))
        rows = tables[1]
        csv = (tmp_path / "jobs1.csv").read_bytes()
        assert all((tmp_path / f"jobs{jobs}.csv").read_bytes() == csv for jobs in (2, 3, 4))
        # fewer rows than jobs: the first two rows at jobs 3
        short = SweepConfig(**{**config.__dict__, "jobs": 3,
                               "grid": {**config.grid, "h_values": [0.1, 1e-2]}})
        write_csv(run_sweep(short), str(tmp_path / "short.csv"))
        assert (tmp_path / "short.csv").read_bytes().splitlines() == csv.splitlines()[:3]
        header = (tmp_path / "jobs1.csv").read_text().splitlines()[0].split(",")
        assert set(NUMERIC_COLUMNS) <= set(header)
        assert [row["route"] for row in rows] == ["whole_line"] * 2 + ["windowed"] * 2
        for row in rows:
            assert row["steps"] <= row["steps_built"]
            assert 0.0 < row["error_estimate"] <= 1e-9
            assert row["tail_route"] == "series"


class TestInterferenceScan:
    def test_single_crossing_raises(self):
        config = SweepConfig(
            potential=CUBIC_DOC,
            grid={"type": "h_ladder",
                  "h_values": list(np.linspace(0.05, 0.04, 6))},
        )
        with pytest.raises(NoMinimaFound):
            scan_interference(config)


class TestCli:
    def _write_cfg(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"potential": doc}))
        return str(path)

    def test_describe(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, CUBIC_DOC)
        rc = cli_main(["describe", "--config", cfg, "--eps", "0.001", "--h", "0.01"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["catalog"]["m_star"] == 3
        assert out["regimes"] == ["N"]

    def test_describe_refuses_a_tol(self, tmp_path, capsys):
        """describe computes nothing to a tolerance: a --tol is refused, not
        silently dropped."""
        cfg = self._write_cfg(tmp_path, CUBIC_DOC)
        with pytest.raises(SystemExit) as exc:
            cli_main(["describe", "--config", cfg, "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_describe_prints_the_tails(self, tmp_path, capsys):
        """The default anchor and tail integral per side for the tanh pair;
        the catalog's own to_dict holds no memo contents, so a warm and a
        fresh catalog still compare and serialize equal."""
        pair = model_from_config(TANH_PAIR_DOC)
        anchors = [pair.tail_anchor(side, TAIL_LEVEL) for side in ("right", "left")]
        rc = cli_main(["describe", "--config", self._write_cfg(tmp_path, TANH_PAIR_DOC)])
        assert rc == 0
        tails = json.loads(capsys.readouterr().out)["catalog"]["tails"]
        assert tails == {side: {"anchor": t, "integral": pair.tail_integral(side, t)}
                         for side, t in zip(("right", "left"), anchors)}
        warm, fresh = find_crossings(pair), find_crossings(pair)
        regularized_actions(pair, warm)
        assert warm.line_data and not fresh.line_data
        assert warm == fresh and json.dumps(warm.to_dict()) == json.dumps(fresh.to_dict())
        assert "tails" not in warm.to_dict()

    def test_describe_without_tail_limits(self, tmp_path, capsys):
        """Pure LZ has no constant limits: describe reports them as null,
        the tails as failed, and still lists the crossing at 0."""
        lz_pure = {"family": "linear_lz", "params": {"slope": 1.0}}
        assert cli_main(["describe", "--config", self._write_cfg(tmp_path, lz_pure)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["v_right"] is None and out["v_left"] is None
        assert out["catalog"]["tails"].startswith("failed: ")
        assert [(c["t"], c["m"]) for c in out["catalog"]["crossings"]] == [(0.0, 1)]

    def test_describe_reports_the_band(self, tmp_path, capsys):
        """Demo orders (1, 3) at mu_1 = 5, mu~_1 = 15.2: the order-1 crossing
        sits in the band, since its adiabatic side gates on plain mu_1."""
        cfg = self._write_cfg(tmp_path, DEMO_POTENTIAL)
        rc = cli_main(["describe", "--config", cfg, "--eps", "0.05", "--h", "1e-4"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regimes"].startswith("forbidden band: crossing 0 of order 1")

    def test_simulate_and_outdir(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, CUBIC_DOC)
        out_dir = str(tmp_path / "out")
        rc = cli_main(["simulate", "--config", cfg, "--eps", "0.05", "--h", "0.1",
                       "--tol", "1e-8", "--out", out_dir])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert 0.0 <= doc["P"] <= 1.0

    def test_predict(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, CUBIC_DOC)
        rc = cli_main(["predict", "--config", cfg, "--eps", "0.0005", "--h", "0.002",
                       "--which", "nonadiabatic"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nonadiabatic"]["P_pred"] > 0.9

    def test_predict_all_closed_forms(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, CUBIC_DOC)
        rc = cli_main(["predict", "--config", cfg, "--eps", "0.0005", "--h", "0.002"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"eps", "h", "nonadiabatic", "chain", "mixed"}
        assert set(doc["chain"]) == {"P_pred", "paths", "chain"}
        assert doc["chain"]["P_pred"] == pytest.approx(doc["nonadiabatic"]["P_pred"],
                                                       abs=1e-3)

    def test_verify_subset(self, capsys):
        rc = cli_main(["verify", "--seed", "7", "--suites", "su2"])
        assert rc == 0
        assert "su2.product_unitarity" in capsys.readouterr().out

    def test_verify_msa_suite(self):
        """The MSA checks at verify's default seed: all four pass, and the
        two explicit solutions are conjugate-symmetric exactly."""
        checks = {name: (ok, detail) for name, ok, detail in run_verify(seed=42, suites=["msa"])}
        assert set(checks) == {"msa.k_identity", "msa.symmetry", "msa.residual",
                               "msa.operator_norm_scaling"}
        assert all(ok for ok, _ in checks.values()), checks
        assert checks["msa.symmetry"][1] == "defect 0.00e+00"

    def test_verify_unknown_suite(self, capsys):
        """A misspelled suite is refused, not passed with nothing run."""
        with pytest.raises(ConfigError, match="stationry"):
            run_verify(suites=["stationary", "stationry"])
        assert cli_main(["verify", "--suites", "stationry"]) == 2
        assert "unknown suites ['stationry']" in capsys.readouterr().err

    def test_predict_without_crossing(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, NO_CROSSING_DOC)
        rc = cli_main(["predict", "--config", cfg, "--eps", "0.1", "--h", "0.05"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "no crossing" in doc["nonadiabatic"]["error"]
        assert doc["chain"]["P_pred"] == doc["mixed"]["P_pred"] == 0.0

    def test_sweep_cli(self, tmp_path, capsys):
        doc = {"potential": CUBIC_DOC,
               "grid": {"type": "list", "rows": [{"eps": 0.01, "h": 0.1}]},
               "oracles": ["numeric"], "label": "mini"}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        out_dir = str(tmp_path / "res")
        rc = cli_main(["sweep", "--config", str(cfg), "--out", out_dir])
        assert rc == 0
        assert (tmp_path / "res" / "mini.csv").exists()
        assert (tmp_path / "res" / "mini.report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["predict", "--eps", "0.01", "--h", "0"],
        ["predict", "--eps", "0.01", "--h", "-0.01"],
        ["predict", "--eps", "nan", "--h", "0.01"],
        ["predict", "--eps", "-0.1", "--h", "0.01"],
        ["simulate", "--eps", "0.01", "--h", "0"],
        ["simulate", "--eps", "0.01", "--h", "0.1", "--tol", "0"],
        ["describe", "--eps", "0.01", "--h", "0"]],
        ids=["predict_h_zero", "predict_h_negative", "predict_eps_nan",
             "predict_eps_negative", "simulate_h_zero", "simulate_tol_zero",
             "describe_h_zero"])
    def test_bad_point_is_config_error(self, tmp_path, capsys, argv):
        """0 < h < inf, 0 <= eps < inf, 0 < tol < inf, or exit code 2."""
        cfg = self._write_cfg(tmp_path, CUBIC_DOC)
        assert cli_main([*argv, "--config", cfg]) == 2
        assert "need h > 0, eps >= 0, tol > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("config_tol, flag", [(0, None), (1e-9, "nan")],
                             ids=["config_tol_zero", "flag_tol_nan"])
    def test_bad_sweep_tol_is_config_error(self, tmp_path, monkeypatch, capsys,
                                           config_tol, flag):
        monkeypatch.delenv("CROSSINGLAB_TOL", raising=False)
        doc = {"potential": CUBIC_DOC,
               "grid": {"type": "list", "rows": [{"eps": 0.01, "h": 0.1}]},
               "oracles": ["numeric"], "tol": config_tol}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "res")]
        assert cli_main(argv + (["--tol", flag] if flag else [])) == 2
        assert "need h > 0, eps >= 0, tol > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env", [("-3", None), (None, "-3"), (None, "1.7")],
                             ids=["flag_negative", "env_negative", "env_fraction"])
    def test_bad_jobs_is_config_error(self, tmp_path, monkeypatch, capsys, flag, env):
        """--jobs and CROSSINGLAB_JOBS go through the config's rule; 0 means
        not given."""
        if env is None:
            monkeypatch.delenv("CROSSINGLAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("CROSSINGLAB_JOBS", env)
        doc = {"potential": CUBIC_DOC,
               "grid": {"type": "list", "rows": [{"eps": 0.01, "h": 0.1}]},
               "oracles": ["nonadiabatic"]}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "res")]
        assert cli_main(argv + (["--jobs", flag] if flag else [])) == 2
        assert "jobs" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("flag, used", [("0", 2), ("3", 3)])
    def test_jobs_flag_over_config(self, tmp_path, monkeypatch, flag, used):
        """--jobs 0 leaves the config's jobs; any other value replaces it."""
        import crossinglab.harness.sweep as sweep_module

        monkeypatch.delenv("CROSSINGLAB_JOBS", raising=False)
        seen = []
        monkeypatch.setattr(sweep_module, "run_sweep",
                            lambda config: seen.append(config.jobs) or [])
        doc = {"potential": CUBIC_DOC,
               "grid": {"type": "list", "rows": [{"eps": 0.01, "h": 0.1}]},
               "oracles": ["nonadiabatic"], "jobs": 2}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                         "--jobs", flag]) == 0
        assert seen == [used]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["describe", "--config", str(bad)]) == 2

    def test_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CROSSINGLAB_SEED", "9")
        rc = cli_main(["verify", "--suites", "su2"])
        assert rc == 0
        assert "seed 9" in capsys.readouterr().out


TOL_CASES = [
    # (config tol, CROSSINGLAB_TOL, --tol, tol used)
    (1e-5, None, None, 1e-5),
    (None, None, None, 1e-9),
    (1e-5, "1e-6", None, 1e-6),
    (1e-5, "1e-6", "1e-4", 1e-4),
]
TOL_IDS = ["config", "default", "env_over_config", "flag_over_env"]


class TestTolPrecedence:
    """--tol beats CROSSINGLAB_TOL, which beats the config's tol, then 1e-9."""

    def _run(self, tmp_path, monkeypatch, command, spy_name, result, case):
        import crossinglab.harness.sweep as sweep_module

        config_tol, env, flag, expected = case
        doc = {"potential": TANH_PAIR_DOC,
               "grid": {"type": "list", "rows": [{"eps": 0.01, "h": 0.05}]},
               "label": "tol"}
        if config_tol is not None:
            doc["tol"] = config_tol
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        if env is None:
            monkeypatch.delenv("CROSSINGLAB_TOL", raising=False)
        else:
            monkeypatch.setenv("CROSSINGLAB_TOL", env)
        used = []

        def spy(config, *args, **kwargs):
            used.append(config.tol)
            return result

        monkeypatch.setattr(sweep_module, spy_name, spy)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if flag is not None:
            argv += ["--tol", flag]
        assert cli_main(argv) == 0
        assert used == [expected]

    @pytest.mark.parametrize("case", TOL_CASES, ids=TOL_IDS)
    def test_sweep(self, tmp_path, monkeypatch, capsys, case):
        self._run(tmp_path, monkeypatch, "sweep", "run_sweep", [], case)

    @pytest.mark.parametrize("case", TOL_CASES, ids=TOL_IDS)
    def test_interfere(self, tmp_path, monkeypatch, capsys, case):
        self._run(tmp_path, monkeypatch, "interfere", "scan_interference",
                  {"minima": [], "pairs": []}, case)

    def test_sweep_report_schema_version(self, tmp_path, monkeypatch, capsys):
        from crossinglab.harness.sweep import CSV_SCHEMA_VERSION

        self._run(tmp_path, monkeypatch, "sweep", "run_sweep", [], TOL_CASES[0])
        report = json.loads((tmp_path / "out" / "tol.report.json").read_text())
        assert report["schema_version"] == CSV_SCHEMA_VERSION == 2


def test_library_import_loads_no_scipy():
    """scipy serves only lazily imported fallbacks and cross-checks."""
    code = ("import sys, crossinglab.harness.cli, crossinglab.msa, crossinglab.scattering, "
            "crossinglab.predictor, crossinglab.transfer, crossinglab.harness.verify; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_sweep_import_loads_no_multiprocessing():
    """Importing the sweep module loads neither multiprocessing nor a process
    pool; run_sweep imports multiprocessing, and only when it forks."""
    code = ("import sys, crossinglab.harness.sweep; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing') "
            "or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_oscillatory_paths_load_no_scipy():
    """The stationary-phase quadrature and the Jost panel tail run on numpy alone."""
    code = ("import sys\n"
            "from crossinglab.oscillatory import osc_integral\n"
            "from crossinglab.potential import LinearLZ, ScaledTanhProduct\n"
            "from crossinglab.scattering import _panel_tail\n"
            "osc_integral(LinearLZ(1.0), (-3.0, 3.0), 0.0, 0.05)\n"
            "pair = ScaledTanhProduct(1.0, [{'power': 3, 'slope': 1.0, 'center': 2.0},\n"
            "                               {'power': 3, 'slope': 1.0, 'center': -2.0}])\n"
            "for side, v_inf in (('right', pair.v_right), ('left', pair.v_left)):\n"
            "    _panel_tail(pair, side, v_inf, pair.tail_anchor(side, 1e-8), 2.0 * abs(v_inf), 1e-12)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"
