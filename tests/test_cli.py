import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

from stopbp import cli, exact_engine, genfun, invariants, spectral
from stopbp.builtin_models import M1_TEXT, M2_TEXT
from stopbp.cli import main
from stopbp.model import (
    BranchingModel, OffspringLaw, PopulationState, StoppingSet, dump_model, load_model,
    unit_state,
)

SUPER_TEXT = """\
{
  "version": 1,
  "types": ["a"],
  "offspring": [
    [{"counts": [0], "p": 0.2}, {"counts": [2], "p": 0.8}]
  ],
  "stopping_set": [[2]]
}
"""

DECOMPOSABLE_TEXT = """\
{
  "version": 1,
  "types": ["a", "b"],
  "offspring": [
    [{"counts": [0, 0], "p": 0.5}, {"counts": [1, 0], "p": 0.5}],
    [{"counts": [0, 0], "p": 0.5}, {"counts": [0, 1], "p": 0.5}]
  ],
  "stopping_set": [[1, 0]]
}
"""

PERIODIC_TEXT = """\
{
  "version": 1,
  "types": ["a", "b"],
  "offspring": [
    [{"counts": [0, 0], "p": 0.5}, {"counts": [0, 1], "p": 0.5}],
    [{"counts": [0, 0], "p": 0.5}, {"counts": [1, 0], "p": 0.5}]
  ],
  "stopping_set": [[1, 0]]
}
"""

# mean matrix [[1e-5, 0.5], [0.5, 0]]: subcritical and aperiodic, with a
# second eigenvalue close to -delta
NEAR_PERIODIC_TEXT = """\
{
  "version": 1,
  "types": ["a", "b"],
  "offspring": [
    [{"counts": [0, 0], "p": 0.49999}, {"counts": [1, 0], "p": 0.00001},
     {"counts": [0, 1], "p": 0.5}],
    [{"counts": [0, 0], "p": 0.5}, {"counts": [1, 0], "p": 0.5}]
  ],
  "stopping_set": [[1, 0]]
}
"""

# mean matrix [[0.5, 1], [0, 0.5]]: decomposable, with a defective Perron root
DEFECTIVE_TEXT = """\
{
  "version": 1,
  "types": ["a", "b"],
  "offspring": [
    [{"counts": [1, 1], "p": 0.5}, {"counts": [0, 1], "p": 0.5}],
    [{"counts": [0, 1], "p": 0.5}, {"counts": [0, 0], "p": 0.5}]
  ],
  "stopping_set": [[1, 0]]
}
"""


# one type, mean 0.9999: subcritical, but a series to tol 1e-9 from [1]
# needs more than MAX_SERIES_TERMS terms
NEAR_CRITICAL_TEXT = """\
{
  "version": 1,
  "types": ["a"],
  "offspring": [
    [{"counts": [0], "p": 0.5}, {"counts": [1], "p": 0.0001}, {"counts": [2], "p": 0.4999}]
  ],
  "stopping_set": [[2]]
}
"""

# one type, mean 0.1 + 3 * 0.3 = 1, computed as 0.9999999999999999:
# below 1, but inside the critical band
MEAN_ONE_TEXT = """\
{
  "version": 1,
  "types": ["a"],
  "offspring": [
    [{"counts": [0], "p": 0.6}, {"counts": [1], "p": 0.1}, {"counts": [3], "p": 0.3}]
  ],
  "stopping_set": [[2]]
}
"""

# two types, S = {[1,1], [2,0]}: type b begets at most one a, and an a
# begets one b or two a, so from [0,2] no generation outside S holds both
# types and [1,1] is never reached; q([0,2] -> [1,1]) is exactly 0
UNREACHABLE_TEXT = """\
{
  "version": 1,
  "types": ["a", "b"],
  "offspring": [
    [{"counts": [0, 0], "p": 0.5366125353898855}, {"counts": [0, 1], "p": 0.26891532509115046},
     {"counts": [2, 0], "p": 0.194472139518964}],
    [{"counts": [0, 0], "p": 0.5407451946875477}, {"counts": [1, 0], "p": 0.4592548053124523}]
  ],
  "stopping_set": [[1, 1], [2, 0]]
}
"""


# one type with mean 2e-7: the survival probability falls below the smallest
# normal float at step 46, before the 50 steps of verify's survival constants
TINY_MEAN_TEXT = """\
{
  "version": 1,
  "types": ["a"],
  "offspring": [[{"counts": [0], "p": 0.9999999}, {"counts": [2], "p": 1e-7}]],
  "stopping_set": [[2]]
}
"""

# four types, each with a zero atom; subcritical, delta = 0.589
FOUR_TYPE_TEXT = """\
{
  "version": 1,
  "types": ["a", "b", "c", "d"],
  "offspring": [
    [{"counts": [0, 0, 0, 0], "p": 0.5}, {"counts": [0, 1, 0, 0], "p": 0.3},
     {"counts": [1, 0, 0, 1], "p": 0.2}],
    [{"counts": [0, 0, 0, 0], "p": 0.4}, {"counts": [0, 0, 1, 0], "p": 0.6}],
    [{"counts": [0, 0, 0, 0], "p": 0.6}, {"counts": [0, 0, 0, 1], "p": 0.4}],
    [{"counts": [0, 0, 0, 0], "p": 0.5}, {"counts": [1, 0, 0, 0], "p": 0.3},
     {"counts": [0, 1, 1, 0], "p": 0.2}]
  ],
  "stopping_set": [[1, 0, 0, 0], [0, 1, 0, 1]]
}
"""


def run_cli(*argv):
    """``python -m stopbp`` in a fresh process: (exit code, stderr lines)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, BP_LOG="info")
    proc = subprocess.run([sys.executable, "-m", "stopbp", *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    return proc.returncode, proc.stderr.splitlines()


@pytest.fixture()
def m1_path(tmp_path):
    path = tmp_path / "m1.json"
    path.write_text(M1_TEXT)
    return str(path)


@pytest.fixture()
def m2_path(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(M2_TEXT)
    return str(path)


@pytest.fixture()
def super_path(tmp_path):
    path = tmp_path / "super.json"
    path.write_text(SUPER_TEXT)
    return str(path)


class TestClassify:
    def test_m2_report(self, m2_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["classify", "--model", m2_path, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["delta"] == pytest.approx(0.6, abs=1e-9)
        assert doc["criticality"] == "subcritical"
        assert doc["period"] == 1

    def test_decomposable_exit_1(self, tmp_path):
        path = tmp_path / "dec.json"
        path.write_text(DECOMPOSABLE_TEXT)
        assert main(["classify", "--model", str(path), "--out",
                     str(tmp_path / "o.json")]) == 1

    def test_supercritical_exit_1(self, super_path, tmp_path):
        assert main(["classify", "--model", super_path, "--out",
                     str(tmp_path / "o.json")]) == 1

    def test_near_periodic_exit_0(self, tmp_path):
        path = tmp_path / "near.json"
        path.write_text(NEAR_PERIODIC_TEXT)
        out = tmp_path / "o.json"
        assert main(["classify", "--model", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert max(doc["residuals"].values()) <= 1e-10

    def test_defective_root_decomposable_exit_1(self, tmp_path, caplog):
        # mean matrix [[0.5, 1], [0, 0.5]]: a defective Perron root, answered
        # at once with the decomposable verdict
        path = tmp_path / "defective.json"
        path.write_text(DEFECTIVE_TEXT)
        out = tmp_path / "o.json"
        start = time.perf_counter()
        assert main(["classify", "--model", str(path), "--out", str(out)]) == 1
        assert time.perf_counter() - start < 1.0
        assert '"delta": 0.5' in out.read_text()
        doc = json.loads(out.read_text())
        assert not doc["indecomposable"] and doc["period"] is None
        assert "converge" not in caplog.text

    def test_missing_file_exit_2(self):
        assert main(["classify", "--model", "/nonexistent/model.json"]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["classify", "--model", str(path)]) == 2


class TestStopProb:
    def test_m1_all_routes_03(self, m1_path, tmp_path):
        out = tmp_path / "q.csv"
        code = main([
            "stop-prob", "--model", m1_path, "--n", "[1]", "--r", "[2]",
            "--t", "5", "--cap", "50", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,r,t,method,q,overflow_bound"
        routes = {l.split(",")[3]: float(l.split(",")[4]) for l in lines[1:]}
        for method in ("direct", "formula", "restricted"):
            assert routes[method] == pytest.approx(0.3, abs=1e-12)
        assert routes["deviation_direct_formula"] <= 1e-12

    def test_one_step_matches_law(self, m1_path, tmp_path):
        out = tmp_path / "q.csv"
        assert main([
            "stop-prob", "--model", m1_path, "--n", "[1]", "--r", "[2]",
            "--t", "1", "--cap", "20", "--out", str(out),
        ]) == 0
        direct = [l for l in out.read_text().splitlines() if ",direct," in l][0]
        assert float(direct.split(",")[4]) == pytest.approx(0.3, abs=1e-15)

    def test_start_in_stopping_set_exit_2(self, m1_path):
        assert main([
            "stop-prob", "--model", m1_path, "--n", "[2]", "--r", "[2]", "--t", "3",
        ]) == 2

    def test_missing_state_args_exit_2(self, m1_path):
        assert main(["stop-prob", "--model", m1_path, "--t", "3"]) == 2

    def test_oversized_cap_exit_2(self, m2_path):
        # k=2, cap=1000 has 501,501 states: refused before any allocation
        assert main([
            "stop-prob", "--model", m2_path, "--n", "[0,2]", "--r", "[1,0]",
            "--t", "5", "--cap", "1000",
        ]) == 2


class TestRejectedBeforeKernel:
    """Bad starts and horizons fail with exit 2 before the dense kernel is built."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel built before the start check")
        monkeypatch.setattr(exact_engine, "one_step_kernel", refuse)

    @pytest.mark.parametrize("command", ["stop-prob"])
    def test_start_beyond_cap_exit_2(self, m2_path, command):
        assert main([
            command, "--model", m2_path, "--n", "[0,200]", "--r", "[1,0]",
            "--t", "5", "--cap", "150",
        ]) == 2

    @pytest.mark.parametrize("command", ["stop-prob"])
    def test_stopping_set_beyond_cap_exit_2(self, m1_path, command):
        assert main([
            command, "--model", m1_path, "--n", "[1]", "--r", "[2]", "--t", "3",
            "--cap", "1",
        ]) == 2

    def test_stop_prob_wrong_dimension_exit_2(self, m1_path):
        assert main([
            "stop-prob", "--model", m1_path, "--n", "[1,2]", "--r", "[2]",
            "--t", "3", "--cap", "60",
        ]) == 2

    def test_stop_prob_horizon_zero_exit_2(self, m2_path, caplog):
        assert main([
            "stop-prob", "--model", m2_path, "--n", "[0,2]", "--r", "[1,0]",
            "--t", "0", "--cap", "120",
        ]) == 2
        assert "--t 0" in caplog.text


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteAndNonpositiveArguments:
    """A non-finite number or a grid total <= 0 is a usage error (exit 2),
    refused before anything is computed from it."""

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_tol_must_be_finite(self, m1_path, caplog, tol):
        assert main(["series", "--model", m1_path, "--n", "[1]", "--r", "[2]",
                     "--tol", tol]) == 2
        assert "--tol must be finite" in caplog.text

    @pytest.mark.parametrize("a", ["nan,1", "inf,1"])
    def test_direction_must_be_finite(self, m2_path, caplog, a):
        assert main(["probe", "--model", m2_path, "--r", "[1,0]", "--a", a,
                     "--n-grid", "10:20:2", "--cap", "100"]) == 2
        assert "--a must be finite" in caplog.text

    @pytest.mark.parametrize("grid", ["0,5", "-5,5"])
    def test_grid_totals_must_be_positive(self, m1_path, caplog, grid):
        assert main(["probe", "--model", m1_path, "--r", "[2]", f"--n-grid={grid}"]) == 2
        assert "--n-grid totals must be positive" in caplog.text


class TestOutsideTheorem:
    """Decomposable and periodic models exit 1, as a supercritical one does."""

    ARGS = {
        "series": ["--n", "[0,2]", "--r", "[1,0]", "--cap", "20"],
        "yaglom": ["--j", "1", "--t", "10", "--cap", "20"],
        "probe": ["--r", "[1,0]", "--n-grid", "10:20:2", "--cap", "60"],
        "estimate": ["--what", "yaglom", "--j", "1", "--t", "10", "--reps", "100"],
    }

    @pytest.mark.parametrize("text", [DECOMPOSABLE_TEXT, PERIODIC_TEXT],
                             ids=["decomposable", "periodic"])
    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_exit_1(self, tmp_path, command, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        assert main([command, "--model", str(path), *self.ARGS[command]]) == 1


class TestNumericalLimits:
    """A series beyond its term budget and a model inside the critical band
    leave through ``cli.main`` with exit 1 and one error line."""

    def test_series_beyond_term_budget_exit_1(self, tmp_path):
        path = tmp_path / "near.json"
        path.write_text(NEAR_CRITICAL_TEXT)
        code, err = run_cli("series", "--model", str(path), "--n", "[1]", "--r", "[2]")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("ERROR series did not meet tol")
        assert "Traceback" not in "\n".join(err)

    def test_mean_one_classified_critical(self, tmp_path):
        path = tmp_path / "mean1.json"
        path.write_text(MEAN_ONE_TEXT)
        model, _ = load_model(MEAN_ONE_TEXT)
        summary = spectral.classify(spectral.moments(model))
        assert summary.delta < 1.0 and summary.criticality == "critical"
        assert main(["classify", "--model", str(path)]) == 1

    @pytest.mark.parametrize("command", ["series", "probe", "yaglom"])
    def test_mean_one_refused(self, tmp_path, command):
        path = tmp_path / "mean1.json"
        path.write_text(MEAN_ONE_TEXT)
        args = {
            "series": ["--n", "[1]", "--r", "[2]"],
            "probe": ["--r", "[2]", "--n-grid", "10:20:2"],
            "yaglom": ["--j", "1", "--t", "10", "--cap", "40"],
        }[command]
        code, err = run_cli(command, "--model", str(path), *args)
        assert code == 1
        assert len(err) == 1 and "needs a subcritical model" in err[0]
        assert "classified critical" in err[0]


    @pytest.mark.parametrize("command, args", [
        ("series", ["--n", "[1,0]"]), ("probe", ["--n-grid", "10:20:2"]),
    ])
    def test_oversized_stopping_total_names_the_monomials(self, tmp_path, command, args):
        # r0 = 2000 in two types: 2,003,001 monomials, over the state limit;
        # the cap-free path names them, and no cap or dense kernel
        doc = json.loads(M2_TEXT)
        doc["stopping_set"] = [[1000, 1000]]
        path = tmp_path / "r2000.json"
        path.write_text(json.dumps(doc))
        code, err = run_cli(command, "--model", str(path), *args, "--r", "[1000,1000]")
        assert code == 2 and len(err) == 1
        assert err[0].startswith("ERROR stopping set reaches total r0=2000")
        assert "C(r0 + k, k) = 2003001 monomials" in err[0]
        assert "cap=" not in err[0] and "dense kernel" not in err[0]

class TestSeries:
    def test_m1_limit(self, m1_path, tmp_path):
        out = tmp_path / "s.csv"
        code = main([
            "series", "--model", m1_path, "--n", "[1]", "--r", "[2]",
            "--cap", "60", "--tol", "1e-9", "--out", str(out),
        ])
        assert code == 0
        series_row = [l for l in out.read_text().splitlines() if ",series," in l][0]
        assert float(series_row.split(",")[4]) == pytest.approx(0.3, abs=1e-8)

    def test_supercritical_exit_1(self, super_path):
        assert main([
            "series", "--model", super_path, "--n", "[1]", "--r", "[2]",
        ]) == 1

    def test_unreachable_target_prints_zero(self, tmp_path):
        # the signed solve leaves -1.2e-12 here; the value is clipped to
        # [0, 1], where the true q lies
        path, out = tmp_path / "model.json", tmp_path / "s.csv"
        path.write_text(UNREACHABLE_TEXT)
        assert main([
            "series", "--model", str(path), "--n", "[0,2]", "--r", "[1,1]",
            "--cap", "40", "--out", str(out),
        ]) == 0
        q = {row[3]: row[4] for row in csv.reader(out.read_text().splitlines()[1:])}
        assert q["series"] == "0"

    def test_tolerance_scales_bound(self, m1_path, tmp_path):
        # the guarantee is linear in tol: each reported bound stays below
        # its tol, so halving tol halves the guarantee (the achieved bound
        # moves in discrete geometric steps and shrinks strictly)
        bounds = []
        for i, tol in enumerate((1e-6, 5e-7)):
            out = tmp_path / f"s{i}.csv"
            assert main([
                "series", "--model", m1_path, "--n", "[1]", "--r", "[2]",
                "--cap", "60", "--tol", str(tol), "--out", str(out),
            ]) == 0
            row = [l for l in out.read_text().splitlines() if "tail_bound" in l][0]
            bound = float(row.split(",")[4])
            assert bound <= tol
            bounds.append(bound)
        assert bounds[1] < bounds[0]

    def test_wrong_dimension_start_exit_2(self, m1_path):
        assert main([
            "series", "--model", m1_path, "--n", "[1,2]", "--r", "[2]", "--cap", "60",
        ]) == 2

    def test_near_periodic_matches_direct_route(self, tmp_path):
        path = tmp_path / "near.json"
        path.write_text(NEAR_PERIODIC_TEXT)
        series_out, direct_out = tmp_path / "s.csv", tmp_path / "d.csv"
        assert main([
            "series", "--model", str(path), "--n", "[0,2]", "--r", "[1,0]",
            "--cap", "30", "--out", str(series_out),
        ]) == 0
        assert main([
            "stop-prob", "--model", str(path), "--n", "[0,2]", "--r", "[1,0]",
            "--cap", "30", "--t", "200", "--out", str(direct_out),
        ]) == 0
        q = {row[3]: float(row[4])
             for out in (series_out, direct_out)
             for row in csv.reader(out.read_text().splitlines()[1:])}
        assert q["series"] == pytest.approx(q["direct"], abs=1e-9)

    def test_large_start_bound_within_tol(self, m1_path, tmp_path):
        # the geometric tail bound grows with the start, so the horizon is
        # sized per start and the reported bound stays below tol
        out = tmp_path / "s.csv"
        assert main([
            "series", "--model", m1_path, "--n", "[150]", "--r", "[2]",
            "--cap", "600", "--tol", "1e-9", "--out", str(out),
        ]) == 0
        row = [l for l in out.read_text().splitlines() if "tail_bound" in l][0]
        assert float(row.split(",")[4]) <= 1e-9

    def test_oversized_laws_exit_2_before_the_pair_table(self, tmp_path, monkeypatch,
                                                          caplog):
        # a stopping state of total 30 in two types: 46,376 monomial pairs,
        # about 3.7 MB by the size check's count, against a 2 MiB budget
        doc = json.loads(M2_TEXT)
        doc["stopping_set"] = [[15, 15]]
        path = tmp_path / "r30.json"
        path.write_text(json.dumps(doc))

        def refuse(*args):
            raise AssertionError("pair table built before the size check")
        monkeypatch.setattr(exact_engine, "MEMORY_BUDGET", 2 << 20)
        monkeypatch.setattr(genfun, "_truncated_pairs", refuse)
        assert main(["series", "--model", str(path), "--n", "[1,0]", "--r", "[15,15]"]) == 2
        [error] = [rec for rec in caplog.records if rec.levelname == "ERROR"]
        assert "above the budget 2097152" in error.getMessage()


class TestCapIgnored:
    """``series`` and ``probe`` build no capped state space: ``--cap`` parses
    and changes nothing, though it lies below a start or the stopping set."""

    @pytest.mark.parametrize("command, model, args", [
        ("series", "m2", ["--n", "[0,200]", "--r", "[1,0]"]),
        ("probe", "m2", ["--r", "[1,0]", "--n-grid", "100:300:3"]),
        ("series", "m1", ["--n", "[1]", "--r", "[2]"]),
        ("probe", "m1", ["--r", "[2]", "--n-grid", "40:90:3"]),
    ])
    def test_same_bytes_with_and_without_cap(self, request, capsys, command, model, args):
        path = request.getfixturevalue(f"{model}_path")
        printed = []
        for cap in (["--cap", "1"], ["--cap", "150"], []):
            assert main([command, "--model", path, *args, *cap]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] == printed[2]

    def test_series_start_above_the_old_cap(self, m2_path, capsys):
        assert main([
            "series", "--model", m2_path, "--n", "[0,200]", "--r", "[1,0]", "--cap", "150",
        ]) == 0
        q = [line.rsplit(",", 2)[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert q == ["0.42237689546916068", "5.7277491945465179e-10"]


class TestYaglom:
    def test_m1_law(self, m1_path, tmp_path):
        out = tmp_path / "y.csv"
        code = main([
            "yaglom", "--model", m1_path, "--j", "1", "--t", "40",
            "--cap", "300", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "state,p"
        total = sum(float(l.split(",")[1]) for l in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_j_out_of_range_exit_2(self, m1_path):
        assert main(["yaglom", "--model", m1_path, "--j", "2", "--t", "10"]) == 2


class TestProbe:
    def test_m1_probe_csv(self, m1_path, tmp_path):
        out = tmp_path / "probe.csv"
        code = main([
            "probe", "--model", m1_path, "--r", "[2]", "--a", "1.0",
            "--n-grid", "40:90:3", "--cap", "700", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,nbar,x_frac,q,overflow_bound,self_similarity_defect,series_bound"
        assert len(lines) == 1 + 6  # three rows plus partners

    @pytest.mark.parametrize("tol", ["1e-9", "1e-13"])
    def test_series_bound_column_below_tol(self, m1_path, capsys, tol):
        # every row, main or partner, writes its certified bound, and the
        # old column stays for readers that take it by name
        assert main([
            "probe", "--model", m1_path, "--r", "[2]", "--n-grid", "40:90:3", "--tol", tol,
        ]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 6
        for row in rows:
            assert 0.0 < float(row["series_bound"]) < float(tol)
            assert float(row["overflow_bound"]) == 0.0

    def test_supercritical_exit_1(self, super_path):
        assert main([
            "probe", "--model", super_path, "--r", "[2]", "--n-grid", "10:20:2",
            "--cap", "100",
        ]) == 1

    def test_start_of_total_1e12_without_cap(self, m1_path, capsys):
        assert main([
            "probe", "--model", m1_path, "--r", "[2]",
            "--n-grid", "1000000000000:1000000000000:1",
        ]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith('"[1000000000000]",1000000000000,')
        assert row.split(",")[3] == "0.6948573325643923"

    def test_bad_grid_exit_2(self, m1_path):
        assert main([
            "probe", "--model", m1_path, "--r", "[2]", "--n-grid", "oops",
        ]) == 2


class TestEstimate:
    def test_absorption(self, m1_path, tmp_path):
        out = tmp_path / "est.csv"
        code = main([
            "estimate", "--model", m1_path, "--what", "absorption",
            "--n", "[1]", "--r", "[2]", "--t", "5", "--reps", "20000",
            "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[0] == "absorption"
        assert abs(float(row[1]) - 0.3) <= 4 * float(row[2])

    def test_wrong_dimension_start_exit_2(self, m1_path):
        # checked as the exact commands check it, before any trajectory
        assert main([
            "estimate", "--model", m1_path, "--what", "absorption",
            "--n", "[1,0]", "--r", "[2]", "--t", "5", "--reps", "1000",
        ]) == 2

    def test_yaglom_estimate(self, m1_path, tmp_path):
        out = tmp_path / "est.csv"
        code = main([
            "estimate", "--model", m1_path, "--what", "yaglom", "--j", "1",
            "--t", "4", "--reps", "50000", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("conditioning_frequency,")

    def test_yaglom_supercritical_exit_1_before_simulating(
        self, super_path, tmp_path, monkeypatch
    ):
        # refused by the subcriticality gate `stopbp yaglom` uses, before
        # any trajectory runs
        import stopbp.montecarlo as mc

        def refuse(*args, **kwargs):
            raise AssertionError("trajectories simulated before the gate")

        monkeypatch.setattr(mc, "_simulate_stopped_batch", refuse)
        assert main([
            "estimate", "--model", super_path, "--what", "yaglom", "--j", "1",
            "--t", "60", "--reps", "200", "--out", str(tmp_path / "est.csv"),
        ]) == 1

    def test_worker_invariance_via_cli(self, m2_path, tmp_path):
        outs = []
        for w in ("1", "3"):
            out = tmp_path / f"est{w}.csv"
            assert main([
                "estimate", "--model", m2_path, "--what", "absorption",
                "--n", "[0,2]", "--r", "[1,0]", "--t", "8", "--reps", "20000",
                "--seed", "5", "--workers", w, "--out", str(out),
            ]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestVerify:
    def test_builtin_pair_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "m1:" in out and "m2:" in out
        assert "[" in out and "s]" in out  # per-check timing present

    def test_injected_fault_fails(self, capsys, monkeypatch):
        build = exact_engine.one_step_kernel

        def perturbed(*args, **kwargs):
            kernel = build(*args, **kwargs)
            kernel.matrix[1, 0] += 1e-6
            return kernel

        monkeypatch.setattr(exact_engine, "one_step_kernel", perturbed)
        assert main(["verify"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_single_model(self, m1_path, capsys):
        assert main(["verify", "--model", m1_path]) == 0

    def test_decomposable_skips_the_perron_checks(self, capsys):
        # no Perron triple: the two checks that need one print [SKIP] with
        # the missing hypothesis, and a skip is not a failure
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        assert main(["verify", "--model", os.path.join(root, "models", "decomposable.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        assert sum(line.startswith("[PASS]") for line in lines) == 10
        skipped = [line for line in lines if line.startswith("[SKIP]")]
        assert len(skipped) == 2
        assert "Perron residuals (skipped: decomposable)" in skipped[0]
        assert "survival constants positive (skipped: decomposable)" in skipped[1]

    def test_raising_check_fails_and_the_rest_run(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(TINY_MEAN_TEXT)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", "--model", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        [failed] = [line for line in lines if not line.startswith("[PASS]")]
        assert failed.startswith("[FAIL]") and "survival constants positive" in failed
        assert "at step 46 is below the smallest normal float" in failed
        assert "extinction matches generating map" in lines[-1]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_battery_space(self, k, monkeypatch):
        # one rule for every k: the largest cap with at most 496 states;
        # at the default cap that is 200 for one type and 30 for two, as
        # before, 12 for three and 8 for four
        built = []
        enumerate_states = exact_engine.enumerate_states

        def spy(*args, **kwargs):
            built.append(enumerate_states(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(exact_engine, "enumerate_states", spy)
        # type i begets nothing, itself, or itself and type i + 1 (mod k)
        units = [unit_state(i, k).counts for i in range(1, k + 1)]
        laws = tuple(OffspringLaw((
            (PopulationState((0,) * k), 0.5),
            (PopulationState(unit), 0.2),
            (PopulationState(tuple(a + b for a, b in zip(unit, units[i % k]))), 0.3),
        )) for i, unit in enumerate(units, 1))
        model = BranchingModel(tuple(f"t{i}" for i in range(k)), laws)
        stopping = StoppingSet(frozenset([unit_state(1, k)]))
        for cap, before in ((cli.RunConfig.cap, {1: 200, 2: 30}), (20, {1: 20, 2: 20})):
            invariants.battery(model, stopping, cap)
            space = built.pop()
            assert space.n_states <= invariants.STATES
            assert space.cap == cap or math.comb(space.cap + 1 + k, k) > invariants.STATES
            assert space.cap == before.get(k, space.cap)

    def test_stopping_set_beyond_the_state_rule(self, k3_cheapest_last, tmp_path, capsys):
        # a stopping state of total 14 in three types lies past the rule's
        # cap 12: the space grows to total 14 (680 states), as the checks
        # need, and the twelve checks pass
        model, _ = k3_cheapest_last
        stopping = StoppingSet(frozenset([PopulationState((1, 0, 0)), PopulationState((7, 7, 0))]))
        path = tmp_path / "k3.json"
        path.write_text(dump_model(model, stopping))
        assert main(["verify", "--model", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        assert all(line.startswith("[PASS]") for line in lines)

    def test_four_types_at_the_default_cap(self, tmp_path, capsys):
        # the dense space of four types at cap 30 exceeded the memory budget
        path = tmp_path / "k4.json"
        path.write_text(FOUR_TYPE_TEXT)
        assert main(["verify", "--model", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12
        assert all(line.startswith("[PASS]") for line in lines)

    def test_stopping_set_outside_the_cap(self, tmp_path, capsys, caplog):
        # refused before any check runs, with stop-prob's message: no [PASS]
        # line, then an error, as when the checks stopped part-way
        path = tmp_path / "k4.json"
        path.write_text(FOUR_TYPE_TEXT.replace(
            '[[1, 0, 0, 0], [0, 1, 0, 1]]', '[[5, 5, 0, 0]]'))
        assert main(["verify", "--model", str(path), "--cap", "9"]) == 2
        assert capsys.readouterr().out == ""
        assert "stopping set reaches total 10 above the cap 9" in caplog.text


class TestConfigPrecedence:
    def test_flags_beat_config(self, m1_path, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"t": 1, "cap": 30}))
        out = tmp_path / "q.csv"
        assert main([
            "stop-prob", "--model", m1_path, "--config", str(config),
            "--n", "[1]", "--r", "[2]", "--t", "7", "--out", str(out),
        ]) == 0
        assert ",7,direct," in out.read_text().replace('"', "")

    def test_config_supplies_values(self, m1_path, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": "[1]", "r": "[2]", "t": 2, "cap": 40}))
        out = tmp_path / "q.csv"
        assert main([
            "stop-prob", "--model", m1_path, "--config", str(config),
            "--out", str(out),
        ]) == 0
        assert ",2,direct," in out.read_text().replace('"', "")

    def test_unknown_config_key_exit_2(self, m1_path, tmp_path):
        config = tmp_path / "cfg.json"
        for fields in ({"capp": 10}, {"k_ref": 1}):
            config.write_text(json.dumps(fields))
            assert main([
                "stop-prob", "--model", m1_path, "--config", str(config),
                "--n", "[1]", "--r", "[2]",
            ]) == 2

    def test_stop_set_override(self, m1_path, tmp_path):
        stop = tmp_path / "stop.json"
        stop.write_text("[[4]]")
        out = tmp_path / "q.csv"
        assert main([
            "stop-prob", "--model", m1_path, "--stop-set", str(stop),
            "--n", "[1]", "--r", "[4]", "--t", "6", "--cap", "40",
            "--out", str(out),
        ]) == 0
        assert '"[4]"' in out.read_text()

    def test_stop_set_wrong_dimension_exit_2(self, m1_path, tmp_path):
        stop = tmp_path / "stop.json"
        stop.write_text("[[4, 0]]")
        assert main([
            "stop-prob", "--model", m1_path, "--stop-set", str(stop),
            "--n", "[1]", "--r", "[4]", "--t", "6", "--cap", "40",
        ]) == 2

    def test_unknown_flag_exit_2(self, m1_path):
        assert main(["stop-prob", "--model", m1_path, "--frobnicate"]) == 2

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_log_env_var(self, m1_path, tmp_path, monkeypatch):
        monkeypatch.setenv("BP_LOG", "debug")
        out = tmp_path / "q.csv"
        assert main([
            "stop-prob", "--model", m1_path, "--n", "[1]", "--r", "[2]",
            "--t", "2", "--cap", "30", "--out", str(out),
        ]) == 0


class TestParserReuse:
    def test_usage_error_then_valid_call(self, m1_path, tmp_path, monkeypatch):
        # the parser is built once per process; a failed parse leaves it usable
        built, build = [], cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        assert main(["series", "--model", m1_path, "--frobnicate"]) == 2
        out = tmp_path / "s.csv"
        assert main([
            "series", "--model", m1_path, "--n", "[1]", "--r", "[2]",
            "--cap", "60", "--out", str(out),
        ]) == 0
        assert ",series," in out.read_text()
        assert len(built) == 1
