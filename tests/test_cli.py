"""Command-line interface: reports, tables, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from tailbounds.cli import main, parse_grid
from tailbounds.errors import InputError


def run(args):
    return main(args)


class TestGridParsing:
    def test_range_spec(self):
        g = parse_grid("1:8:0.5")
        assert g[0] == 1.0 and g[-1] == 8.0 and len(g) == 15

    def test_list_spec(self):
        assert parse_grid("1,2.5,7").tolist() == [1.0, 2.5, 7.0]

    def test_rejects_decreasing(self):
        with pytest.raises(InputError):
            parse_grid("3,2,1")

    @pytest.mark.parametrize("spec, match", [("1:x:0.5", "non-numeric field")] + [
        (spec, "entries must be finite") for spec in
        ["1:inf:1", "1:nan:1", "nan:2:0.5", "1:2:nan", "1:2:inf", "-inf:2:1", "1,inf",
         "2,1e400", "nan"]])
    def test_rejects_garbage(self, spec, match):
        with pytest.raises(InputError, match=match):
            parse_grid(spec)

    def test_range_numpy_cannot_allocate_is_input_error(self):
        # np.arange's ValueError "Maximum allowed size exceeded"
        with pytest.raises(InputError, match=r"grid spec '0:1e30:1': \d+ points exceed"):
            parse_grid("0:1e30:1")


class TestUpper:
    def test_chernoff_spot_in_csv(self, tmp_path):
        out = tmp_path / "r.json"
        table = tmp_path / "t.csv"
        code = run(["upper", "--family", "quadratic", "--x", "1:8:0.5",
                    "--out", str(out), "--csv", str(table), "--normalize"])
        assert code == 0
        rows = list(csv.DictReader(table.open()))
        by_x = {float(r["x"]): float(r["upper"]) for r in rows}
        assert by_x[2.0] == pytest.approx(math.exp(-2.0), rel=1e-9)
        rep = json.loads(out.read_text())
        assert rep["schema_version"] == 1
        assert rep["status"] == "ok"

    def test_integral_bounds_section(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["upper", "--family", "quadratic", "--lambda-min", "0",
                    "--x", "1:4:1", "--bound-lambda", "3", "--epsilon", "0.2",
                    "--out", str(out), "--normalize"])
        assert code == 0
        rep = json.loads(out.read_text())
        entry = rep["results"]["integral_bounds"]["3.0"]
        assert entry["compound"] >= math.exp(entry["log_integral"]) * (1 - 1e-9)

    def test_bound_lambda_computes_k_and_r_once(self, tmp_path, monkeypatch):
        # K and R depend on eps alone, so one epsilon report serves every
        # lambda and the report section; the conjugate runs twice per
        # lambda, for f*(lambda/(1 - eps)) in the bound ("compound" is exp
        # of "log_compound") and for the peak that I(lambda) is folded about
        from tailbounds import integrals

        calls = {"k_integral": 0, "r_integral": 0, "conjugate_value": 0}
        for name in calls:
            def counted(*args, _fn=getattr(integrals, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(integrals, name, counted)
        out = tmp_path / "r.json"
        assert run(["upper", "--family", "quadratic", "--lambda-min", "0", "--x", "1:4:1",
                    "--bound-lambda", "1,2", "--epsilon", "0.2",
                    "--out", str(out), "--normalize"]) == 0
        assert calls == {"k_integral": 1, "r_integral": 1, "conjugate_value": 4}
        for entry in json.loads(out.read_text())["results"]["integral_bounds"].values():
            assert entry["compound"] == math.exp(entry["log_compound"])

    def test_bound_past_the_search_cap_is_vacuous(self, tmp_path):
        # zeta = x^1.3/1.3: the maximizer (lam/0.8)^(1/0.3) of zeta*(lam/0.8)
        # passes the cap 1e8 from lam = 0.8 * 1e8^0.3 = 201, so the bounds at
        # 300 and 1000 are +inf; ln I(1000) is about zeta*(1000) = 2.31e12,
        # with its peak at x = 1e10, past the cap and the pre-test's probes
        out = tmp_path / "r.json"
        assert run(["upper", "--family", "power-log", "--p", "1.3", "--lambda-min", "0",
                    "--epsilon", "0.2", "--bound-lambda", "100,300,1000",
                    "--out", str(out), "--normalize"]) == 0
        bounds = json.loads(out.read_text())["results"]["integral_bounds"]
        assert bounds["100.0"]["log_compound"] >= bounds["100.0"]["log_integral"]
        for lam in ("300.0", "1000.0"):
            assert bounds[lam]["log_compound"] == "inf" and bounds[lam]["compound"] == "inf"
            assert "stops at the search cap" in bounds[lam]["error"]


class TestLowerUni:
    def test_certificate_constants(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["lower-uni", "--family", "quadratic", "--lambda-min", "0",
                    "--epsilon", "0.2", "--x", "1:8:1",
                    "--m-surrogate", "2.802495608", "--signed",
                    "--out", str(out), "--normalize"])
        assert code == 0
        cert = json.loads(out.read_text())["results"]["certificate"]
        assert cert["c1"] == pytest.approx(0.441, abs=2e-3)
        assert cert["dilation"] == pytest.approx(4.87, rel=0.02)

    def test_surrogate_computed_when_omitted(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["lower-uni", "--family", "quadratic", "--lambda-min", "0",
                    "--x", "1:4:1", "--out", str(out), "--normalize"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["m_surrogate"] == pytest.approx(2.8025, rel=1e-3)

    @pytest.mark.parametrize("family,extra", [
        ("quadratic", ["--lambda-min", "0"]),
        ("power-log", ["--p", "2", "--r", "1", "--lambda-min", "0"]),
        ("linear", ["--m-surrogate", "2.0", "--lambda-min", "0"]),
        # the default --lambda-min 1, where the dilation certificate's
        # verification range has to start above the default one
        ("quadratic", []),
        ("quartic", []),
        ("power-log", ["--p", "3"]),
        ("power-log", ["--p", "2", "--r", "1"]),
        ("linear", []),
    ])
    def test_lower_never_exceeds_chernoff_in_report(self, tmp_path, family, extra):
        out = tmp_path / "r.json"
        code = run(["lower-uni", "--family", family,
                    "--x", "1:6:1", "--out", str(out), "--normalize"] + extra)
        assert code == 0
        res = json.loads(out.read_text())["results"]
        lower = res["envelope"]["log_value"]
        upper = res["chernoff"]["log_value"]
        for lv, uv in zip(lower, upper):
            lvf = float("-inf") if lv == "-inf" else float(lv)
            uvf = float("-inf") if uv == "-inf" else float(uv)
            assert lvf <= uvf + 1e-9

    def test_linear_family_clamps_honestly(self, tmp_path):
        # a linear exponent certifies nothing above its slope: the emitted
        # envelope is identically the trivial bound, never a positive claim
        out = tmp_path / "r.json"
        code = run(["lower-uni", "--family", "linear", "--lambda-min", "0",
                    "--m-surrogate", "2.0", "--x", "1:6:1",
                    "--out", str(out), "--normalize"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert all(v == 0.0 for v in rep["results"]["envelope"]["value"])


class TestOtherCommands:
    def test_conjugate_table(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["conjugate", "--family", "quartic", "--x", "8,27",
                    "--out", str(out), "--normalize"])
        assert code == 0
        rows = json.loads(out.read_text())["results"]["table"]
        assert rows[0]["value"] == pytest.approx(12.0, abs=1e-7)

    def test_richter(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["richter", "--family", "quadratic", "--lambda-min", "0",
                    "--x", "2:8:1", "--out", str(out), "--normalize"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["c2"] >= 0.8916

    def test_moments_pole(self, tmp_path):
        # the README's pole command: the lower tail is x^-gamma, gamma below
        # the pole b = 3
        out = tmp_path / "r.json"
        code = run(["moments", "--mode", "pole", "--c", "1", "--b", "3", "--beta", "1",
                    "--x", "3:10:1", "--out", str(out), "--normalize"])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        gamma = res["report"]["gamma"]
        assert 2.5 < gamma < 3.0 and "upper" not in res
        lower = res["lower"]
        assert lower["side"] == "lower" and len(lower["x"]) == 8
        np.testing.assert_allclose(lower["log_value"], -gamma * np.log(lower["x"]), rtol=1e-12)

    def test_moments_growth(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["moments", "--mode", "growth", "--m", "2",
                    "--x", "3:10:1", "--out", str(out), "--normalize"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["report"]["recovered_m"] == pytest.approx(2.0, rel=0.05)

    def test_moments_pole_refuses_a_csv(self, tmp_path, capsys):
        # a CSV carries no pole; it feeds the growth route, which reads both
        # columns, and a one-sided CSV is refused by its header
        two = tmp_path / "two.csv"
        two.write_text("p,lower,upper\n1,0.5,2\n2,0.7,2.8\n3,0.9,3.5\n")
        one = tmp_path / "one.csv"
        one.write_text("p,lower\n1,0.5\n2,0.7\n3,0.9\n")
        for path in (two, one):
            assert run(["moments", "--mode", "pole", "--moments-csv", str(path),
                        "--out", str(tmp_path / "r.json")]) == 1
            err = capsys.readouterr().err
            assert "--c, --b and --beta" in err and "p,lower,upper" in err
        assert not (tmp_path / "r.json").exists()
        assert run(["moments", "--moments-csv", str(one)]) == 1
        err = capsys.readouterr().err
        assert "one.csv:1: expected header 'p,lower,upper', got 'p,lower'" in err
        assert "--mode pole" not in err

    def test_tauber(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["tauber", "--dist", "gaussian", "--scale", "2",
                    "--out", str(out), "--normalize"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["k_mgf"] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("dist", ["weibull2", "exponential"])
    def test_tauber_refuses_a_scale_for_a_law_without_one(self, dist, tmp_path, capsys):
        # only the Gaussian takes --scale; any other law would run at its
        # own scale 1 and ignore the flag
        out = tmp_path / "r.json"
        assert run(["tauber", "--dist", dist, "--scale", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "only the gaussian takes a scale" in err
        assert not out.exists()

    def test_tauber_refuses_an_unknown_reference(self, tmp_path, capsys):
        # --reference is quadratic or family: a misspelt quadratic is a
        # usage error, not the --family default
        out = tmp_path / "r.json"
        assert run(["tauber", "--dist", "gaussian", "--scale", "2", "--reference", "qudratic",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "invalid choice: 'qudratic'" in err
        assert not out.exists()

    def test_tauber_against_a_family_reference(self, tmp_path):
        # --reference family takes the --family exponent, here lam^2 against
        # the standard Gaussian's lam^2/2: the MGF-side constant is 1/sqrt(2)
        out = tmp_path / "r.json"
        assert run(["tauber", "--dist", "gaussian", "--reference", "family", "--family",
                    "quadratic", "--coeff", "1", "--lambda-min", "0",
                    "--out", str(out), "--normalize"]) == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["reference"] == "quadratic(coeff=1.0)"
        assert rep["results"]["k_mgf"] == pytest.approx(0.5 ** 0.5, abs=1e-9)

    def test_lower_bi_closure(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["lower-bi", "--family", "quadratic", "--lambda-min", "0",
                    "--x", "2:8:1", "--out", str(out), "--normalize"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["regularity"]["v_value"] == pytest.approx(1.0, abs=1e-6)

    def test_lower_bi_pinch(self, tmp_path):
        # the README's pinch command: valid from the certificate's threshold,
        # and below the Chernoff bound at every emitted point
        out = tmp_path / "r.json"
        code = run(["lower-bi", "--family", "quadratic", "--lambda-min", "0",
                    "--delta", "0.1", "--out", str(out), "--normalize"])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        cert, env = res["certificate"], res["envelope"]
        assert cert["delta"] == 0.1 and 0.0 < cert["c"] < 5.0
        assert env["valid_from"] == cert["certified_from"]
        assert env["x"] == res["chernoff"]["x"] and env["x"][0] >= math.e
        assert all(lv <= uv for lv, uv in zip(env["log_value"], res["chernoff"]["log_value"]))

    def test_lower_bi_closure_reports_each_z(self, tmp_path):
        # per z in z order: z = 1.5 clamps; on a quadratic on [2, inf) it
        # lies below phi'(2) = 2 and takes mu = lo = 2, whose x0 = 2 >= z
        out = tmp_path / "r.json"
        code = run(["lower-bi", "--family", "quadratic", "--lambda-min", "0",
                    "--x", "1.5,3,5", "--out", str(out), "--normalize"])
        assert code == 0
        rep = json.loads(out.read_text())
        per_z = rep["results"]["diagnostics"]["per_z"]
        assert [row["z"] for row in per_z] == [1.5, 3.0, 5.0]
        assert [row["status"] for row in per_z] == ["clamped", "ok", "ok"]
        assert per_z[0]["best_offsets"] is None and per_z[0]["log_value"] == "-inf"
        assert rep["results"]["envelope"]["log_value"][1:] == [r["log_value"]
                                                                for r in per_z[1:]]
        d1, d2, lam = per_z[1]["best_offsets"]
        assert lam == pytest.approx(3.0 / (1.0 - d1), rel=1e-9) and 0.0 < d2 <= 0.5
        code = run(["lower-bi", "--family", "quadratic", "--lambda-min", "2",
                    "--x", "1.5,3", "--out", str(out), "--normalize"])
        assert code == 0
        per_z = json.loads(out.read_text())["results"]["diagnostics"]["per_z"]
        assert [row["status"] for row in per_z] == ["ok", "ok"]
        d1, _, lam = per_z[0]["best_offsets"]
        assert lam == pytest.approx(2.0 / (1.0 - d1), rel=1e-15)


class TestValidateAndErrors:
    def test_gaussian_validate_exits_zero(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["validate", "--dist", "gaussian", "--seed", "42",
                    "--out", str(out), "--normalize"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "ok"
        assert all(c["pass"] for c in rep["results"]["gaussian"].values())

    def test_validate_reports_the_battery(self, tmp_path):
        from tailbounds import oracles
        from tailbounds.cli import to_jsonable

        out = tmp_path / "r.json"
        assert run(["validate", "--dist", "gaussian", "--seed", "42",
                    "--mc-samples", "50000", "--out", str(out), "--normalize"]) == 0
        want = json.loads(json.dumps(to_jsonable(
            oracles.battery(oracles.gaussian(), 42, 50_000))))
        assert json.loads(out.read_text())["results"] == {"gaussian": want}

    def test_validate_builds_the_suite_once(self, tmp_path, monkeypatch):
        from tailbounds import cli, oracles

        built = []

        def counted():
            built.append(1)
            return oracles.suite()

        monkeypatch.setattr(cli, "suite", counted)
        assert run(["validate", "--dist", "gaussian", "--seed", "42",
                    "--out", str(tmp_path / "r.json"), "--normalize"]) == 0
        assert len(built) == 1

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["validate", "--dist", "gaussian", "--seed", "42",
                        "--out", str(path), "--normalize"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reports_from_two_threads_match_a_single_run(self, tmp_path):
        def report(path):
            assert run(["validate", "--dist", "exponential", "--seed", "42",
                        "--out", str(path), "--normalize"]) == 0
            return path.read_bytes()

        single = report(tmp_path / "single.json")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to interleave the runs
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                runs = [pool.submit(report, tmp_path / f"t{i}.json") for i in range(2)]
                got = [r.result(timeout=120) for r in runs]
        finally:
            sys.setswitchinterval(interval)
        assert got == [single, single]

    def test_unknown_distribution_is_input_error(self):
        assert run(["validate", "--dist", "nosuch"]) == 1

    def test_malformed_grid_csv_reports_line(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        p.write_text("lambda,value\n1.0,1.0\n0.5,2.0\n")
        code = run(["conjugate", "--grid-csv", str(p), "--x", "1:3:1"])
        assert code == 1
        assert ":3:" in capsys.readouterr().err

    def test_non_finite_grid_csv_entry_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        p.write_text("lambda,value\n1.0,1.0\n2.0,nan\n3.0,4.5\n")
        assert run(["conjugate", "--grid-csv", str(p), "--x", "1:3:1"]) == 1
        assert ":3: entries must be finite and nonnegative" in capsys.readouterr().err

    def test_missing_file_is_input_error(self):
        assert run(["conjugate", "--grid-csv", "/nonexistent.csv", "--x", "1:3:1"]) == 1

    def test_unwritable_report_path_is_input_error(self, tmp_path, capsys):
        assert run(["conjugate", "--x", "1:3:1", "--out", str(tmp_path)]) == 1
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, spec", [
        ("upper", "5:1:1"), ("upper", "1:inf:1"), ("upper", "1:nan:1"),
        ("upper", "nan:2:0.5"), ("upper", "1:2:nan"), ("upper", "1:2:inf"),
        ("upper", "1,inf"), ("lower-bi", "2,inf"), ("richter", "2,1e400")])
    def test_bad_grid_spec(self, cmd, spec, capsys):
        assert run([cmd, "--x", spec]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, says", [
        (["upper", "--family", "power-log", "--p", "nan"], "power exponent p must be positive"),
        (["upper", "--coeff", "nan"], "quadratic coefficient must be positive and finite, got nan"),
        (["upper", "--coeff", "inf"], "quadratic coefficient must be positive and finite, got inf"),
        (["upper", "--family", "power-log", "--r", "nan"], "log exponent r must be finite"),
        (["upper", "--family", "linear", "--slope", "inf"], "linear slope must be nonnegative"),
        (["tauber", "--scale", "nan"], "scale must be positive and finite, got nan"),
        (["conjugate", "--x", "0:1e30:1"], "grid spec '0:1e30:1'"),
        (["moments", "--m", "inf", "--x", "3:10:1"], "parameter m must be finite"),
        (["moments", "--c-high", "inf"], "parameter c_high must be finite"),
        (["moments", "--mode", "pole", "--c", "inf"], "parameter c must be finite"),
        (["moments", "--mode", "pole", "--b", "inf"], "parameter b must be finite"),
        (["moments", "--mode", "pole", "--beta", "inf"], "parameter beta must be finite"),
    ], ids=["power-log-p-nan", "coeff-nan", "coeff-inf", "power-log-r-nan", "linear-slope-inf",
            "tauber-scale-nan", "unallocatable-grid", "growth-m-inf", "growth-c-high-inf",
            "pole-c-inf", "pole-b-inf", "pole-beta-inf"])
    def test_non_finite_parameter_or_huge_grid_is_input_error(self, argv, says, tmp_path,
                                                              capsys):
        # p = nan reported a Chernoff bound of -inf at every x and exited 0,
        # the others exited 1 or 2 after an evaluation or with a traceback
        assert run([*argv, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err
        assert says in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv, env, says", [
        (["validate", "--seed", "-1"], None, "got seed -1,"),
        (["validate", "--seed", str(2 ** 128)], None, f"got seed {2 ** 128},"),
        (["validate"], "abc", "$TAILBOUNDS_SEED must be an integer seed, got 'abc'"),
        (["validate", "--mc-samples", "-5"], None, "count -5"),
        (["tauber", "--mc", "--mc-samples", "-1"], None, "count -1"),
    ], ids=["negative-seed", "seed-2**128", "env-seed-abc", "negative-mc-samples",
            "tauber-negative-mc-samples"])
    def test_bad_seed_or_sample_count_is_input_error(self, argv, env, says, tmp_path,
                                                     monkeypatch, capsys):
        # each reached Philox, or int(), and ended in a ValueError traceback
        if env is not None:
            monkeypatch.setenv("TAILBOUNDS_SEED", env)
        else:
            monkeypatch.delenv("TAILBOUNDS_SEED", raising=False)
        assert run([*argv, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err
        assert says in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv, says", [
        (["conjugate", "--bogus"], "unrecognized arguments: --bogus"),
        (["conjugate", "--coeff", "abc"], "argument --coeff: invalid float value: 'abc'"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown-flag", "bad-float", "no-subcommand"])
    def test_usage_error_is_input_error(self, argv, says, capsys):
        # argparse's own exit code is 2, the code of a validation failure
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: tailbounds") and says in err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAILBOUNDS_SEED", "7")
        out = tmp_path / "r.json"
        assert run(["validate", "--dist", "gaussian", "--out", str(out),
                    "--normalize"]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 7


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter on this checkout's src; it must exit 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_library_never_imports_scipy(tmp_path):
    # a fresh interpreter: the import, the commands that integrate, sample
    # and take normal tails, and a mixture sampler; no scipy module at any
    # point
    code = f"""
import sys

def assert_no_scipy(where):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, (where, loaded[:5])

import tailbounds
assert_no_scipy("import tailbounds")
from tailbounds.cli import main
out = {str(tmp_path / "r.json")!r}
for argv in (["validate", "--dist", "gaussian"],
             ["tauber", "--dist", "gaussian", "--mc", "--mc-samples", "20000"],
             ["lower-uni", "--family", "quadratic", "--lambda-min", "0"],
             ["moments", "--mode", "growth", "--m", "2", "--x", "3:10:0.5"]):
    assert main(argv + ["--normalize", "--out", out]) == 0, argv
    assert_no_scipy(argv)
tailbounds.oracles.gaussian_scale_mixture(0.3, 0.8, 1.0).sample(1, 1000)
assert_no_scipy("gaussian_scale_mixture sample")
"""
    _run_fresh(code)


def test_lower_bi_and_tauber_never_import_numpy_ma(tmp_path):
    # a fresh interpreter: np.unique without return_inverse imports numpy.ma
    # (about 16 ms) on its first call; the regularity check that lower-bi
    # and tauber run takes its sorted distinct points without it
    code = f"""
import sys
from tailbounds.cli import main
out = {str(tmp_path / "r.json")!r}
for argv in (["lower-bi", "--family", "quadratic", "--lambda-min", "0", "--x", "2:8:0.5"],
             ["tauber", "--dist", "gaussian", "--scale", "2"]):
    assert main(argv + ["--normalize", "--out", out]) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""
    _run_fresh(code)


def test_hermite_tables_are_built_lazily(tmp_path):
    # a fresh interpreter: neither the import nor a validate run without a
    # Weibull law builds a Gauss-Hermite table; the first Weibull row above
    # the series switch builds the 24- and 32-node ones
    code = f"""
import tailbounds.cli
from tailbounds import oracles
rule = oracles._hermite_rule
assert rule.cache_info().currsize == 0, "import tailbounds.cli"
out = {str(tmp_path / "r.json")!r}
assert tailbounds.cli.main(["validate", "--dist", "gaussian", "--seed", "42",
                            "--normalize", "--out", out]) == 0
assert rule.cache_info().currsize == 0, "validate --dist gaussian"
oracles.weibull(4.0).mgf_exponent.value(1e4)
assert rule.cache_info().currsize == 2, rule.cache_info()
"""
    _run_fresh(code)
