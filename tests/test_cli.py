"""Command-line surface: exit codes, file formats, round trips."""

import json

import numpy as np
import pytest

import cvarscale.bench as bench_mod
import cvarscale.cli as cli_mod
from cvarscale import Tolerances, load_instance, save_instance, validate
from cvarscale.cli import main
from cvarscale.cvar import solve_cvar
from cvarscale.errors import ConfigError
from cvarscale.scaling import pin_alpha_mask, scaling_heuristic, scenario_cost_floors

# every tolerance flag, in Tolerances field order, with a non-default value
TOLERANCE_FLAGS = {
    "--feas-tol": ("feas_tol", 2e-6),
    "--delta1": ("delta1", 3e-4),
    "--delta2": ("delta2", -0.01),
    "--alpha-max": ("alpha_max", 77.0),
    "--max-iter": ("max_iter", 7),
    "--delta-a": ("delta_A", 0.2),
}


@pytest.fixture()
def two_scenario_file(tmp_path, two_scenario):
    path = tmp_path / "two.json"
    save_instance(two_scenario, path)
    return str(path)


@pytest.fixture()
def line_four_file(tmp_path, line_four):
    path = tmp_path / "line.json"
    save_instance(line_four, path)
    return str(path)


class TestValidateCommand:
    def test_ok(self, two_scenario_file):
        assert main(["validate", two_scenario_file]) == 0

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2


class TestSolveCommand:
    def test_plain(self, two_scenario_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["solve", two_scenario_file, "--method", "cvar", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(2.0)
        assert doc["status"] == "optimal"
        assert set(doc) >= {"objective", "x", "beta", "s", "alpha", "status",
                            "violation_prob"}

    def test_infeasible_plain_exits_one(self, line_four_file):
        assert main(["solve", line_four_file, "--method", "cvar"]) == 1

    def test_scaled_needs_alpha_file(self, two_scenario_file):
        assert main(["solve", two_scenario_file, "--method", "scaled"]) == 2

    def test_scaled(self, two_scenario_file, tmp_path):
        alpha = tmp_path / "alpha.json"
        alpha.write_text("[1.0, 6.0]")
        out = tmp_path / "sol.json"
        rc = main(["solve", two_scenario_file, "--method", "scaled",
                   "--alpha-file", str(alpha), "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["objective"] == pytest.approx(1.5)

    def test_iterative_with_trace(self, two_scenario_file, tmp_path):
        out, trace = tmp_path / "sol.json", tmp_path / "trace.json"
        rc = main(["solve", two_scenario_file, "--method", "alg1",
                   "-o", str(out), "--trace-file", str(trace)])
        assert rc == 0
        tdoc = json.loads(trace.read_text())
        assert tdoc["records"]
        assert tdoc["incumbent"]["objective"] == pytest.approx(
            min(r["objective"] for r in tdoc["records"])
        )

    def test_exact(self, two_scenario_file, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", two_scenario_file, "--method", "exact", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(1.0)
        assert doc["satisfied_set"] == [2]

    def test_alsox_init_for_iterative(self, line_four_file, tmp_path):
        # plain start is infeasible here; an explicit point must be accepted
        init = tmp_path / "x0.json"
        init.write_text(json.dumps({"x": [0.0]}))
        rc = main(["solve", line_four_file, "--method", "alg1",
                   "--init-file", str(init), "-o", str(tmp_path / "sol.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "sol.json").read_text())
        assert doc["objective"] == pytest.approx(0.0, abs=1e-7)


    def test_violation_prob_follows_feas_tol(self, tmp_path):
        # at the plain CVaR point some scenario rows are positive; with a huge
        # --feas-tol none counts as violated, for every method's document
        path = tmp_path / "inst.json"
        assert main(["generate", "--family", "portfolio", "--n", "10", "--N", "30",
                     "--eps", "0.300333", "--seed", "5", "--out", str(path)]) == 0
        docs = {}
        for method in ("cvar", "alsox"):
            for feas_tol in ("1e-6", "100"):
                out = tmp_path / f"{method}-{feas_tol}.json"
                assert main(["solve", str(path), "--method", method,
                             "--feas-tol", feas_tol, "-o", str(out)]) == 0
                docs[method, feas_tol] = json.loads(out.read_text())
        assert docs["cvar", "1e-6"]["violation_prob"] > 0.0
        for method in ("cvar", "alsox"):
            assert docs[method, "100"]["violation_prob"] == 0.0

    def test_point_documents_keep_key_order(self, two_scenario_file, tmp_path):
        head = ["objective", "x", "beta", "s", "alpha", "status", "violation_prob"]
        for method, extra in (("exact", ["satisfied_set"]), ("alsox", ["t_upper"])):
            out = tmp_path / f"{method}.json"
            assert main(["solve", two_scenario_file, "--method", method, "-o", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert list(doc) == head + extra
            assert doc["beta"] is None and doc["s"] is None
            assert doc["alpha"] == [1.0, 1.0] and doc["status"] == "optimal"


class TestToleranceFlags:
    @staticmethod
    def _capture(monkeypatch, module, name):
        """Replace module.name by a stub that records the Tolerances it gets,
        then stops the command with an input error (exit 2)."""
        seen = []

        def stub(*args, **kwargs):
            seen.append(next(a for a in (*args, *kwargs.values()) if isinstance(a, Tolerances)))
            raise ConfigError("stop")

        monkeypatch.setattr(module, name, stub)
        return seen

    @staticmethod
    def _argv(flags):
        return [arg for flag in flags for arg in (flag, str(TOLERANCE_FLAGS[flag][1]))]

    @staticmethod
    def _want(flags):
        return Tolerances(**dict(TOLERANCE_FLAGS[flag] for flag in flags))

    @pytest.mark.parametrize("flag", list(TOLERANCE_FLAGS))
    def test_solve_flag_reaches_its_field(self, flag, two_scenario_file, monkeypatch):
        seen = self._capture(monkeypatch, cli_mod, "solve_cvar")
        assert main(["solve", two_scenario_file, "--method", "cvar", *self._argv([flag])]) == 2
        assert seen == [self._want([flag])]

    @pytest.mark.parametrize("flag", list(TOLERANCE_FLAGS))
    def test_bench_flag_reaches_its_field(self, flag, two_scenario_file, monkeypatch):
        seen = self._capture(monkeypatch, bench_mod, "run_experiment")
        assert main(["bench", "--instance", two_scenario_file, *self._argv([flag])]) == 2
        assert seen == [self._want([flag])]

    def test_all_flags_together_and_defaults(self, two_scenario_file, monkeypatch):
        seen = self._capture(monkeypatch, cli_mod, "solve_cvar")
        main(["solve", two_scenario_file, "--method", "cvar", *self._argv(TOLERANCE_FLAGS)])
        main(["solve", two_scenario_file, "--method", "cvar"])
        assert seen == [self._want(TOLERANCE_FLAGS), Tolerances()]

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_flags_listed_in_field_order(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        positions = [usage.index(flag + " ") for flag in TOLERANCE_FLAGS]
        assert positions == sorted(positions)

    def test_sweep_reads_alpha_max(self, two_scenario_file, monkeypatch):
        seen = self._capture(monkeypatch, cli_mod, "solve_scaled_cvar")
        rc = main(["sweep", two_scenario_file, "--scenario", "2", "--grid", "1",
                   "--alpha-max", "77"])
        assert rc == 2
        assert seen == [Tolerances(alpha_max=77.0)]

    @pytest.mark.parametrize("flag", [f for f in TOLERANCE_FLAGS if f != "--alpha-max"])
    def test_sweep_rejects_the_flags_it_ignores(self, flag, two_scenario_file):
        # e.g. sweep --delta1 1: argparse exits 2 on an unknown option
        with pytest.raises(SystemExit) as exc:
            main(["sweep", two_scenario_file, "--scenario", "2", "--grid", "1", flag, "1"])
        assert exc.value.code == 2


class TestPruneEta:
    @staticmethod
    def run(tmp_path, index):
        """Corpus instance ``index``, its pin mask, the unpinned alg1 trace, and
        the ``--prune-eta`` solution and trace documents."""
        from tests.test_acceptance import _mixed_instance

        inst = _mixed_instance(index)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        probe = scaling_heuristic(inst, solve_cvar(inst).x)
        mask = pin_alpha_mask(scenario_cost_floors(inst), probe.incumbent.objective)
        out, trace = tmp_path / "sol.json", tmp_path / "trace.json"
        rc = main(["solve", str(path), "--method", "alg1", "--prune-eta",
                   "-o", str(out), "--trace-file", str(trace)])
        assert rc == 0
        doc, tdoc = json.loads(out.read_text()), json.loads(trace.read_text())
        assert doc["status"] == "optimal"
        assert doc["objective"] <= tdoc["incumbent"]["objective"] + 1e-9
        return mask, probe, doc, tdoc

    def test_alg1_keeps_pinned_factors(self, tmp_path):
        # on corpus instance 0 the command pins two scenarios that the unpinned
        # run never scales; the runs tie, and the pinned one is returned
        mask, probe, doc, tdoc = self.run(tmp_path, 0)
        assert mask.sum() == 2
        assert tdoc["incumbent"]["objective"] == probe.incumbent.objective
        for alpha in [doc["alpha"]] + [r["alpha"] for r in tdoc["records"]]:
            assert np.all(np.asarray(alpha)[mask] == 1.0)

    def test_never_worse_than_plain_alg1(self, tmp_path):
        # on corpus instance 16 the unpinned run's first step scales a scenario
        # whose cost floor lies above its incumbent; pinned, the run stops at
        # the plain CVaR value 7.06499, so the unpinned run (6.99731) is returned
        mask, probe, doc, tdoc = self.run(tmp_path, 16)
        assert mask.sum() == 2
        assert any(np.any(r.alpha[mask] != 1.0) for r in probe.records)
        assert doc["objective"] <= probe.incumbent.objective + 1e-9
        assert tdoc["incumbent"]["objective"] == probe.incumbent.objective


class TestSweepCommand:
    def test_reference_curve(self, two_scenario_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", two_scenario_file, "--scenario", "2",
                   "--grid", "1,2,6,50", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,objective"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == pytest.approx([2.0, 2.0, 1.5, 1.06], abs=1e-8)

    def test_single_point_matches_plain(self, two_scenario_file, tmp_path, capsys):
        rc = main(["sweep", two_scenario_file, "--scenario", "2", "--grid", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[1].split(",")[1]) == pytest.approx(2.0)

    def test_scenario_index_checked(self, two_scenario_file):
        assert main(["sweep", two_scenario_file, "--scenario", "3", "--grid", "1"]) == 2


class TestCertifyCommand:
    def test_certificate_found(self, two_scenario_file, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["certify", two_scenario_file, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["x"][0] > 1.0

    def test_no_certificate(self, tmp_path, line_four_zero_offset):
        # pin the domain at the origin: the zero-offset row can never be strict
        from dataclasses import replace
        from cvarscale import Domain

        pinned = replace(line_four_zero_offset, domain=Domain.box([0.0], [0.0]))
        path = tmp_path / "pinned.json"
        save_instance(pinned, path)
        assert main(["certify", str(path)]) == 1


class TestGenerateAndBench:
    def test_generate_round_trip(self, tmp_path):
        out = tmp_path / "inst.json"
        rc = main(["generate", "--family", "portfolio", "--n", "8", "--N", "20",
                   "--eps", "0.200333", "--seed", "5", "--out", str(out)])
        assert rc == 0
        inst = load_instance(out)
        validate(inst)
        assert main(["validate", str(out)]) == 0
        assert main(["solve", str(out), "--method", "cvar",
                     "-o", str(tmp_path / "sol.json")]) in (0, 1)

    def test_bench_rows(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["bench", "--family", "portfolio", "--n", "5", "--N", "10",
                   "--eps-list", "0.300333", "--seeds", "1,2",
                   "--budget-fraction", "0.6",
                   "--methods", "cvar,alg1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2 seeds x 2 methods
        assert lines[0].startswith("instance,eps,method")

    def test_bench_jobs_match_serial(self, tmp_path):
        def rows(jobs):
            out = tmp_path / f"report-{jobs}.csv"
            rc = main(["bench", "--family", "portfolio", "--n", "5", "--N", "10",
                       "--eps-list", "0.300333", "--seeds", "1,2",
                       "--budget-fraction", "0.6", "--methods", "cvar,alg1",
                       "--jobs", str(jobs), "--out", str(out)])
            assert rc == 0
            lines = [line.split(",") for line in out.read_text().strip().splitlines()]
            col = lines[0].index("time_s")
            return [line[:col] + line[col + 1:] for line in lines]

        serial = rows(1)
        assert len(serial) == 5
        assert rows(2) == serial

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bench_rejects_jobs_below_one(self, two_scenario_file, jobs):
        assert main(["bench", "--instance", two_scenario_file, "--jobs", jobs]) == 2

    def test_bench_on_instance_file(self, two_scenario_file, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["bench", "--instance", two_scenario_file,
                   "--methods", "cvar,exact", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_bench_writes_failed_cells_to_stderr(self, tmp_path, capsys):
        # exact stops at 20 scenarios; the CSV keeps its columns
        out = tmp_path / "report.csv"
        rc = main(["bench", "--family", "portfolio", "--n", "3", "--N", "21",
                   "--eps-list", "0.300333", "--seeds", "1", "--budget-fraction", "0.6",
                   "--methods", "cvar,exact", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["failed cell: instance portfolio-n3-N21-s1, method exact: "
                       "TooLarge: N=21 exceeds the enumeration cap 20"]
        lines = out.read_text().strip().splitlines()
        assert lines[0] == bench_mod.REPORT_HEADER
        assert len(lines) == 3 and lines[2].split(",")[2:4] == ["exact", ""]

    def test_bench_rejects_unknown_method(self, two_scenario_file):
        assert main(["bench", "--instance", two_scenario_file,
                     "--methods", "cvar,magic"]) == 2
