import csv

import numpy as np
import pytest

from aftmean import cli, gehan
from aftmean.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_FIT,
    EXIT_OK,
    load_csv,
    main,
)
from aftmean.errors import DataError
from aftmean.gehan import DesignData
from aftmean.simulation import parse_scenario_text
from conftest import count_searches, random_censored_sample
from oracles import gehan_d1_scan

try:
    from importlib import resources

    CONFIG_DIR = resources.files("aftmean").joinpath("configs")
except Exception:  # pragma: no cover
    CONFIG_DIR = None


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def linear_csv(tmp_path):
    # exact linear data: T = 2 + x1 + x2, uncensored
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(40):
        x1, x2 = rng.normal(size=2)
        rows.append([2.0 + x1 + x2, 1, x1, x2])
    path = tmp_path / "linear.csv"
    write_csv(path, ["time", "status", "x1", "x2"], rows)
    return str(path)


# ---------------------------------------------------------------- load_csv


def test_load_csv_roundtrip(tmp_path, rng):
    y, ev, x = random_censored_sample(rng, 25, d=2)
    data = DesignData(y, ev, x)
    path = tmp_path / "d.csv"
    rows = [
        [repr(float(t)), int(e), repr(float(a)), repr(float(b))]
        for t, e, (a, b) in zip(y, ev, x)
    ]
    write_csv(path, ["t", "e", "a", "b"], rows)
    back = load_csv(str(path), "t", "e", ("a", "b"))
    np.testing.assert_array_equal(back.time, data.time)
    np.testing.assert_array_equal(back.event, data.event)
    np.testing.assert_array_equal(back.covariates, data.covariates)


def test_load_csv_toy_values(tmp_path):
    path = tmp_path / "toy.csv"
    write_csv(path, ["t", "e", "x"], [[1.5, 1, 0.25], [2.5, 0, -1.0], [3.0, 1, 2.0]])
    data = load_csv(str(path), "t", "e", ("x",))
    np.testing.assert_array_equal(data.time, [1.5, 2.5, 3.0])
    np.testing.assert_array_equal(data.event, [True, False, True])
    np.testing.assert_array_equal(data.covariates[:, 0], [0.25, -1.0, 2.0])


def test_load_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["t", "e", "x"], [[1.0, 2, 0.5]])
    with pytest.raises(DataError, match="row 2.*'e'"):
        load_csv(str(path), "t", "e", ("x",))

    write_csv(path, ["t", "e", "x"], [[1.0, 1, "abc"]])
    with pytest.raises(DataError, match="row 2, column 'x'"):
        load_csv(str(path), "t", "e", ("x",))

    write_csv(path, ["t", "e"], [[1.0, 1]])
    with pytest.raises(DataError, match="missing column"):
        load_csv(str(path), "t", "e", ("x",))

    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(str(tmp_path / "empty.csv"), "t", "e", ("x",))

    write_csv(path, ["t", "e", "x"], [[-1.0, 1, 0.5]])
    with pytest.raises(DataError, match="positive"):
        load_csv(str(path), "t", "e", ("x",), log_time=True)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["t", "x"])
def test_load_csv_rejects_a_non_finite_cell(tmp_path, value, column):
    path = tmp_path / "nonfinite.csv"
    rows = [[1.0, 1, 0.5], [2.0, 0, 1.5]]
    rows[1][0 if column == "t" else 2] = value
    write_csv(path, ["t", "e", "x"], rows)
    with pytest.raises(DataError, match=f"row 3, column '{column}': '{value}' is not a finite"):
        load_csv(str(path), "t", "e", ("x",))


def test_load_csv_rejects_a_requested_column_the_header_repeats(tmp_path):
    path = tmp_path / "twice.csv"
    write_csv(path, ["t", "e", "x", "x", "z", "z"], [[1.0, 1, 0.5, 2.0, 0.0, 0.0]])
    with pytest.raises(DataError, match=r"\['x'\] appear more than once"):
        load_csv(str(path), "t", "e", ("x",))
    # a repeated column that is not requested is not read, so it is not ambiguous
    write_csv(path, ["t", "e", "x", "z", "z"], [[1.0, 1, 0.5, 0.0, 0.0]])
    assert load_csv(str(path), "t", "e", ("x",)).covariates.tolist() == [[0.5]]


@pytest.mark.parametrize(
    "columns",
    [["--response", "x1", "--event", "status", "--covariates", "x1,x2"],
     ["--response", "time", "--event", "status", "--covariates", "status,x2"],
     ["--response", "time", "--event", "status", "--covariates", "x1,x1"]],
    ids=["response-is-covariate", "event-is-covariate", "covariate-twice"],
)
def test_a_column_named_in_two_roles_exits_config_error(tmp_path, capsys, linear_csv,
                                                        columns):
    out = tmp_path / "o.csv"
    for command in ("fit", "predict-cv"):
        assert main([command, "--input", linear_csv, *columns, "--output", str(out)]) == EXIT_CONFIG
        assert "more than once" in capsys.readouterr().err
        assert not out.exists()


def test_cmd_fit_short_row_exits_data_error(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("t,e,x\n1.0,1,0.5\n2.0,0\n")
    code = main(["fit", "--input", str(path), "--response", "t", "--event", "e",
                 "--covariates", "x", "--output", str(tmp_path / "o.csv")])
    assert code == EXIT_DATA
    assert "row 3 has 2 of 3 cells" in capsys.readouterr().err


# ---------------------------------------------------------------- fit


def test_cmd_fit_exact_linear(tmp_path, linear_csv, capsys):
    out = tmp_path / "fit.csv"
    code = main(
        [
            "fit",
            "--input", linear_csv,
            "--response", "time",
            "--event", "status",
            "--covariates", "x1,x2",
            "--output", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["term", "estimate", "bootstrap_se"]
    est = {r[0]: float(r[1]) for r in rows[1:]}
    assert est["intercept"] == pytest.approx(2.0, abs=1e-5)
    assert est["x1"] == pytest.approx(1.0, abs=1e-5)
    assert est["x2"] == pytest.approx(1.0, abs=1e-5)
    km = tmp_path / "fit_km.csv"
    assert km.exists()
    kmrows = list(csv.reader(km.open()))
    assert kmrows[0] == ["t", "cdf", "survival"]
    assert float(kmrows[-1][1]) == 1.0


def test_cmd_fit_with_bootstrap(tmp_path, linear_csv):
    out = tmp_path / "fit.csv"
    code = main(
        [
            "fit",
            "--input", linear_csv,
            "--response", "time",
            "--event", "status",
            "--covariates", "x1,x2",
            "--output", str(out),
            "--boot", "10",
            "--seed", "4",
        ]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(out.open()))
    ses = [float(r[2]) for r in rows[1:]]
    assert all(np.isfinite(ses))


@pytest.mark.parametrize("boot", ["1", "-3"])
def test_cmd_fit_rejects_a_bootstrap_count_below_two_before_fitting(tmp_path, linear_csv, boot):
    out = tmp_path / "fit.csv"
    code = main(["fit", "--input", linear_csv, "--response", "time", "--event", "status",
                 "--covariates", "x1,x2", "--boot", boot, "--output", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_cmd_fit_lattice_d1_bootstrap_accepts_exact_minima(tmp_path, monkeypatch):
    # x in {0, 1, 2} and whole-day times 2..16: residual ties everywhere, so
    # the exact d = 1 minimum can leave the score above the n**-1 bound
    rng = np.random.default_rng(0)
    x = rng.integers(0, 3, 300)
    t = np.clip(np.round(np.exp(1.6 + 0.3 * x + rng.normal(0.0, 0.5, 300))), 2, 16)
    c = rng.integers(2, 17, 300)
    path = tmp_path / "lattice.csv"
    rows = [[int(min(a, b)), int(a <= b), int(v)] for a, b, v in zip(t, c, x)]
    write_csv(path, ["t", "e", "x"], rows)
    solved = []
    solve = gehan._solve_with_report

    def recorded(data, *args):
        beta, report = solve(data, *args)
        solved.append((data, beta[0]))
        return beta, report

    monkeypatch.setattr(gehan, "_solve_with_report", recorded)
    rc = main(["fit", "--input", str(path), "--response", "t", "--event", "e",
               "--covariates", "x", "--log-time", "--boot", "50",
               "--output", str(tmp_path / "fit.csv")])
    assert rc == EXIT_OK
    assert len(solved) == 51  # the full data, then every resample
    for data, slope in solved:
        exact = gehan_d1_scan(data.time, data.event.astype(float), data.covariates[:, 0])
        assert slope == exact


def test_cmd_fit_all_censored_exits_fit_error(tmp_path, capsys):
    path = tmp_path / "cens.csv"
    write_csv(path, ["t", "e", "x"], [[1.0, 0, 0.1], [2.0, 0, 0.5], [3.0, 0, 0.9]])
    code = main(
        ["fit", "--input", str(path), "--response", "t", "--event", "e",
         "--covariates", "x", "--output", str(tmp_path / "o.csv")]
    )
    assert code == EXIT_FIT
    err = capsys.readouterr().err
    assert "no events" in err or "degenerate KM" in err


def test_cmd_fit_constant_covariate_exits_fit_error(tmp_path, rng, capsys):
    # a constant column's slope trades one for one against the intercept
    y, ev, x = random_censored_sample(rng, 60, d=1)
    path = tmp_path / "const.csv"
    rows = [[a, int(b), c, 2.0] for a, b, c in zip(y, ev, x[:, 0])]
    write_csv(path, ["t", "e", "x", "site"], rows)
    out = tmp_path / "o.csv"
    code = main(["fit", "--input", str(path), "--response", "t", "--event", "e",
                 "--covariates", "x,site", "--output", str(out)])
    assert code == EXIT_FIT
    assert "slope not identified" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_fit_tail_adequate_when_uncensored(tmp_path, capsys):
    rng = np.random.default_rng(10)
    rows = [[1.0 + 0.5 * x + 0.1 * rng.normal(), 1, x] for x in rng.normal(size=100)]
    path = tmp_path / "u.csv"
    write_csv(path, ["t", "e", "x"], rows)
    code = main(
        ["fit", "--input", str(path), "--response", "t", "--event", "e",
         "--covariates", "x", "--output", str(tmp_path / "o.csv")]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "tail 0.01 -> adequate" in out and "NOT" not in out


def test_cmd_fit_tail_not_adequate_under_heavy_censoring(tmp_path, capsys):
    rows = [[0.5, 1, 0.0], [0.6, 1, 0.4], [1.0, 0, 0.2], [1.0, 0, 0.9],
            [1.0, 0, 0.6], [1.0, 0, 0.1], [1.0, 0, 0.8], [1.0, 0, 0.3]]
    path = tmp_path / "h.csv"
    write_csv(path, ["t", "e", "x"], rows)
    assert main(["fit", "--input", str(path), "--response", "t", "--event", "e",
                 "--covariates", "x", "--output", str(tmp_path / "o.csv")]) == EXIT_OK
    assert "-> NOT adequate" in capsys.readouterr().out


def test_cmd_fit_missing_column_exits_data_error(tmp_path, linear_csv):
    code = main(
        ["fit", "--input", linear_csv, "--response", "time", "--event", "status",
         "--covariates", "nope", "--output", str(tmp_path / "o.csv")]
    )
    assert code == EXIT_DATA


def test_cli_unknown_flag_exits_config_error(linear_csv):
    assert main(["fit", "--bogus", "1"]) == EXIT_CONFIG
    assert main(["nonsense"]) == EXIT_CONFIG


def test_cmd_fit_byte_identical_reruns(tmp_path, linear_csv):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["fit", "--input", linear_csv, "--response", "time", "--event", "status",
            "--covariates", "x1,x2", "--boot", "8", "--seed", "11"]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a_km.csv").read_bytes() == (tmp_path / "b_km.csv").read_bytes()


# ---------------------------------------------------------------- predict-cv


def test_cmd_predict_cv_exact(tmp_path, capsys):
    rows = [[2.0 + x, 1, x] for x in (-1.0, 0.0, 1.0, 2.0)]
    path = tmp_path / "l.csv"
    write_csv(path, ["t", "e", "x"], rows)
    out = tmp_path / "cv.csv"
    code = main(
        ["predict-cv", "--input", str(path), "--response", "t", "--event", "e",
         "--covariates", "x", "--output", str(out)]
    )
    assert code == EXIT_OK
    got = list(csv.reader(out.open()))
    assert got[0] == ["subject", "observed", "event", "predicted", "fold_failed"]
    for row in got[1:]:
        assert float(row[3]) == pytest.approx(float(row[1]), abs=1e-6)
        assert row[4] == "0"
    assert "MSE" in capsys.readouterr().out


def test_cmd_predict_cv_duplicated_row_is_influence_free(tmp_path):
    # a duplicated subject: dropping one copy leaves the fit unchanged, so
    # its held-out prediction equals the full-fit prediction
    rng = np.random.default_rng(8)
    xs = rng.normal(size=12)
    rows = [[1.0 + 0.5 * x + 0.01 * rng.normal(), 1, x] for x in xs]
    rows.append(list(rows[0]))  # duplicate the first subject
    path = tmp_path / "dup.csv"
    write_csv(path, ["t", "e", "x"], rows)
    out = tmp_path / "cv.csv"
    assert main(
        ["predict-cv", "--input", str(path), "--response", "t", "--event", "e",
         "--covariates", "x", "--output", str(out)]
    ) == EXIT_OK
    got = list(csv.reader(out.open()))
    first, last = got[1], got[-1]
    assert float(first[3]) == pytest.approx(float(last[3]), abs=1e-9)


def test_cmd_predict_cv_folds_start_from_the_full_fit(tmp_path, monkeypatch):
    # four searches for the full fit, then one per fold from its slopes
    rng = np.random.default_rng(12)
    y, ev, x = random_censored_sample(rng, 15, d=2)
    path = tmp_path / "d2.csv"
    write_csv(path, ["t", "e", "x1", "x2"], np.column_stack([y, ev, x]).tolist())
    calls = count_searches(monkeypatch)
    out = tmp_path / "cv.csv"
    assert main(
        ["predict-cv", "--input", str(path), "--response", "t", "--event", "e",
         "--covariates", "x1,x2", "--output", str(out)]
    ) == EXIT_OK
    assert [row[4] for row in list(csv.reader(out.open()))[1:]] == ["0"] * 15
    assert len(calls) == 4 + 15


def test_cmd_predict_cv_needs_three_subjects(tmp_path):
    path = tmp_path / "two.csv"
    write_csv(path, ["t", "e", "x"], [[1.0, 1, 0.0], [2.0, 1, 1.0]])
    code = main(
        ["predict-cv", "--input", str(path), "--response", "t", "--event", "e",
         "--covariates", "x", "--output", str(tmp_path / "o.csv")]
    )
    assert code == EXIT_DATA


# ---------------------------------------------------------------- simulate


def test_cmd_simulate_custom_scenario(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\n"
        "tau = 4\nn = 50\nreps = 3\nseed = 6\n"
    )
    out = tmp_path / "table.csv"
    code = main(["simulate", "--scenario", str(cfg), "--output", str(out)])
    assert code == EXIT_OK
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["parameter", "mean", "sd", "censoring_rate", "n_replications", "n_failed"]
    assert [r[0] for r in rows[1:]] == ["alpha", "beta1", "beta2"]


def test_cmd_simulate_single_replicate_blank_sd(tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(
        "study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\n"
        "tau = 4\nn = 50\nreps = 1\nseed = 6\n"
    )
    out = tmp_path / "table.csv"
    assert main(["simulate", "--scenario", str(cfg), "--output", str(out)]) == EXIT_OK
    rows = list(csv.reader(out.open()))
    assert rows[1][2] == ""


def test_cmd_simulate_bundled_config_with_overrides(tmp_path):
    out = tmp_path / "cell.csv"
    code = main(
        ["simulate", "--scenario", "table1_a_tau4_n400", "--output", str(out),
         "--reps", "2"]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(out.open()))
    assert rows[1][0] == "alpha"
    assert rows[1][4] == "2"


def test_cmd_simulate_prediction_scenario(tmp_path):
    cfg = tmp_path / "pred.cfg"
    cfg.write_text(
        "study = prediction\nx = normal(0,1)\ncens = uniform(-3,3)\ntau = 0\n"
        "n = 80\nreps = 4\nseed = 6\n"
    )
    out = tmp_path / "pred.csv"
    assert main(["simulate", "--scenario", str(cfg), "--output", str(out)]) == EXIT_OK
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "model"
    assert [r[0] for r in rows[1:]] == ["linear", "cox"]
    assert all(float(r[1]) > 0 for r in rows[1:])  # ratios filled


def test_cmd_simulate_unknown_scenario_exits_config(tmp_path):
    code = main(
        ["simulate", "--scenario", "no_such_cell", "--output", str(tmp_path / "x.csv")]
    )
    assert code == EXIT_CONFIG


def test_cmd_simulate_byte_identical(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "study = estimation\nerror = laplace(0.5)\nx2 = uniform(-2,2)\n"
        "tau = 4\nn = 40\nreps = 3\nseed = 16\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", str(cfg), "--output", str(a)]) == EXIT_OK
    assert main(["simulate", "--scenario", str(cfg), "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cmd_simulate_explicit_seed_equal_to_flag_default(tmp_path):
    # --seed 20260810 is the other commands' default; simulate must still honour it
    body = "study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\ntau = 4\nn = 50\nreps = 3\n"
    own, flagged = tmp_path / "own.cfg", tmp_path / "flagged.cfg"
    own.write_text(body + "seed = 20260810\n")
    flagged.write_text(body + "seed = 6\n")
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main(["simulate", "--scenario", str(own), "--output", str(a)]) == EXIT_OK
    assert main(
        ["simulate", "--scenario", str(flagged), "--output", str(b), "--seed", "20260810"]
    ) == EXIT_OK
    assert main(["simulate", "--scenario", str(flagged), "--output", str(c)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert b.read_bytes() != c.read_bytes()


TAU4_BODY = (
    "study = estimation\nerror = normal(0.5)\nx2 = normal(0,1)\n"
    "tau = 4\nn = 50\nreps = 3\nseed = 6\n"
)


def _simulate_csv(scenario, output, *flags):
    """Exit code of ``simulate`` and, on success, the CSV it wrote."""
    code = main(["simulate", "--scenario", str(scenario), "--output", str(output), *flags])
    return code, output.read_bytes() if code == EXIT_OK else None


def test_cmd_simulate_truncation_flags_override_the_file(tmp_path):
    plain, keyed = tmp_path / "plain.cfg", tmp_path / "keyed.cfg"
    plain.write_text(TAU4_BODY)
    keyed.write_text(TAU4_BODY + "mode = theoretical\nepsilon = 0.01\n")
    out = tmp_path / "out.csv"
    _, own = _simulate_csv(plain, out)
    _, in_file = _simulate_csv(keyed, out)
    _, flagged = _simulate_csv(plain, out, "--mode", "theoretical", "--epsilon", "0.01")
    assert flagged == in_file
    assert own != in_file
    # no flag keeps the file's mode; --mode maxobs on the keyed file undoes it
    assert _simulate_csv(keyed, out, "--mode", "maxobs")[1] == own


def test_cmd_simulate_out_of_range_epsilon_aborts_only_when_used(tmp_path):
    plain, keyed = tmp_path / "plain.cfg", tmp_path / "keyed.cfg"
    plain.write_text(TAU4_BODY)
    keyed.write_text(TAU4_BODY + "mode = theoretical\n")
    out = tmp_path / "out.csv"
    assert _simulate_csv(plain, out, "--epsilon", "0.5")[0] == EXIT_OK
    assert _simulate_csv(keyed, out, "--mode", "maxobs", "--epsilon", "0.5")[0] == EXIT_OK
    assert _simulate_csv(plain, out, "--mode", "theoretical", "--epsilon", "0.5")[0] == EXIT_CONFIG
    assert _simulate_csv(keyed, out, "--epsilon", "0.5")[0] == EXIT_CONFIG


@pytest.mark.parametrize(
    "old, new, key, value",
    [
        ("tau = 4", "tau = four", "tau", "four"),
        ("x2 = normal(0,1)", "x2 = normal(0,abc)", "x2", "abc"),
        ("n = 50", "n = 4.5", "n", "4.5"),
        ("reps = 3", "reps = many", "reps", "many"),
        ("seed = 6", "seed = 6\nmode = theoretical\nepsilon = abc", "epsilon", "abc"),
    ],
    ids=["tau", "law-parameter", "n", "reps", "epsilon"],
)
def test_cmd_simulate_bad_number_exits_config_error(tmp_path, capsys, old, new, key, value):
    cfg = tmp_path / "bad.cfg"
    assert old in TAU4_BODY
    cfg.write_text(TAU4_BODY.replace(old, new))
    assert _simulate_csv(cfg, tmp_path / "out.csv")[0] == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"{key!r}" in err and f"{value!r}" in err


NON_FINITE = [
    ("x2 = normal(0,1)", "x2 = uniform(-inf,2)"),
    ("tau = 4", "tau = 4\ncens = uniform(0,inf)"),
    ("error = normal(0.5)", "error = normal(nan)"),
    ("error = normal(0.5)", "error = normal(inf)"),
    ("error = normal(0.5)", "error = t(inf)"),
    ("error = normal(0.5)", "error = laplace(nan)"),
    ("x2 = normal(0,1)", "x2 = normal(nan,1)"),
    ("tau = 4", "tau = nan"),
    ("tau = 4", "tau = -inf"),
    ("tau = 4", "tau = 4\ncens = uniform(5,0)"),
    ("tau = 4", "tau = 4\ncens = normal(0,1)"),
    ("tau = 4", "tau = 4\ncens ="),
    ("error = normal(0.5)", "error = t()"),
    ("error = normal(0.5)", "error = evmin(1)"),
    ("x2 = normal(0,1)", "x2 = bogus(1)"),
]


@pytest.mark.parametrize(
    "old, new", NON_FINITE, ids=[new.split("\n")[-1].replace(" ", "") for _, new in NON_FINITE]
)
def test_cmd_simulate_non_finite_law_exits_config_error(tmp_path, capsys, old, new):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TAU4_BODY.replace(old, new))
    assert _simulate_csv(cfg, tmp_path / "out.csv")[0] == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    key, _, value = new.split("\n")[-1].partition("=")
    key, kind = key.strip(), value.split("(")[0].strip()
    if key != "tau":  # a bad tau is reported by the censoring law it builds
        assert f"{key!r}" in err
        assert kind in err  # the law's own word, e.g. 'normal' in cens = normal(0,1)
    if key == "cens":
        assert "covariate" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--scenario", "{cfg}", "--seed", "-5"],
        ["simulate", "--scenario", "{negative_cfg}"],
        ["fit", "--input", "{csv}", "--response", "time", "--event", "status",
         "--covariates", "x1,x2", "--boot", "4", "--seed", "-1"],
        ["fit", "--input", "{csv}", "--response", "time", "--event", "status",
         "--covariates", "x1,x2", "--seed", "-1"],
    ],
    ids=["simulate-flag", "simulate-file", "fit-boot", "fit-no-boot"],
)
def test_negative_seed_exits_config_error(tmp_path, capsys, monkeypatch, linear_csv, command):
    cfg, negative_cfg = tmp_path / "plain.cfg", tmp_path / "negative.cfg"
    cfg.write_text(TAU4_BODY)
    negative_cfg.write_text(TAU4_BODY.replace("seed = 6", "seed = -3"))
    out = tmp_path / "out.csv"
    solves = []
    solve = gehan._solve_with_report
    monkeypatch.setattr(gehan, "_solve_with_report", lambda *a: solves.append(a) or solve(*a))
    argv = [word.format(cfg=cfg, negative_cfg=negative_cfg, csv=linear_csv) for word in command]
    assert main(argv + ["--output", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: seed must be a non-negative")
    assert not out.exists()
    assert solves == []  # the seed is checked before anything is fitted


def _refused_overwrite(capsys, argv, source):
    before = source.read_bytes()
    assert main(argv) == EXIT_CONFIG
    assert "would overwrite the input" in capsys.readouterr().err
    assert source.read_bytes() == before


def test_cmd_fit_refuses_to_overwrite_its_input(tmp_path, capsys, linear_csv):
    model = ["--response", "time", "--event", "status", "--covariates", "x1,x2"]
    source = tmp_path / "linear.csv"
    # the same file under another spelling of its path
    (tmp_path / "sub").mkdir()
    alias = str(tmp_path / "sub" / ".." / "linear.csv")
    _refused_overwrite(capsys, ["fit", "--input", linear_csv, *model, "--output", alias], source)
    # the derived curve file res_km.csv of --output res.csv
    km_input = tmp_path / "res_km.csv"
    km_input.write_bytes(source.read_bytes())
    _refused_overwrite(
        capsys,
        ["fit", "--input", str(km_input), *model, "--output", str(tmp_path / "res.csv")],
        km_input,
    )
    assert not (tmp_path / "res.csv").exists()


def test_cmd_predict_cv_refuses_to_overwrite_its_input(tmp_path, capsys, linear_csv):
    argv = ["predict-cv", "--input", linear_csv, "--response", "time", "--event", "status",
            "--covariates", "x1,x2", "--output", linear_csv]
    _refused_overwrite(capsys, argv, tmp_path / "linear.csv")


def test_cmd_simulate_refuses_to_overwrite_its_scenario_file(tmp_path, capsys):
    cfg = tmp_path / "plain.cfg"
    cfg.write_text(TAU4_BODY)
    _refused_overwrite(capsys, ["simulate", "--scenario", str(cfg), "--output", str(cfg)], cfg)


MODEL_FLAGS = ["--input", "{csv}", "--response", "time", "--event", "status",
               "--covariates", "x1,x2"]
COMMANDS = {
    "fit": ["fit", *MODEL_FLAGS],
    "predict-cv": ["predict-cv", *MODEL_FLAGS],
    "simulate": ["simulate", "--scenario", "table1_a_tau4_n400", "--reps", "2"],
}
# each case: the --output value, and the words naming it that the refusal prints
OUTPUT_CASES = {
    "output-is-a-directory": ("{tmp}/taken", "'{tmp}/taken' is a directory"),
    "no-parent-directory": ("{tmp}/nodir/out.csv", "'{tmp}/nodir/out.csv': no such directory"),
    "empty-output": ("", "output '' is a directory"),
}
UNUSABLE_PATHS = {
    f"{command}-{case}": (argv + ["--output", output], named)
    for case, (output, named) in OUTPUT_CASES.items()
    for command, argv in COMMANDS.items()
} | {
    "fit-km-is-a-directory": (
        COMMANDS["fit"] + ["--output", "{tmp}/res.csv"], "'{tmp}/res_km.csv' is a directory"
    ),
    "simulate-scenario-is-a-directory": (
        ["simulate", "--scenario", "{tmp}/taken", "--output", "{tmp}/out.csv"],
        "scenario '{tmp}/taken' is not a file",
    ),
}


@pytest.mark.parametrize("argv, named", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS.keys())
def test_an_unusable_path_exits_config_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                             linear_csv, argv, named):
    (tmp_path / "taken").mkdir()
    (tmp_path / "res_km.csv").mkdir()
    before = sorted(tmp_path.rglob("*"))

    def fail(*args, **kwargs):
        raise AssertionError("an unusable path must stop the command before any work")

    for name in ("load_csv", "fit_aft", "run_estimation_scenario", "run_prediction_scenario"):
        monkeypatch.setattr(cli, name, fail)
    argv = [word.format(csv=linear_csv, tmp=tmp_path) for word in argv]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert named.format(tmp=tmp_path) in err
    assert sorted(tmp_path.rglob("*")) == before


PREDICTION_BODY = (
    "study = prediction\nx = normal(0,1)\ncens = uniform(-3,3)\ntau = 0\n"
    "n = 40\nreps = 2\nseed = 6\n"
)


@pytest.mark.parametrize(
    "body, key",
    [
        (PREDICTION_BODY + "error = t(3)\n", "error"),
        (PREDICTION_BODY + "x2 = normal(0,1)\n", "x2"),
        (TAU4_BODY + "x = normal(0,1)\n", "x"),
        (TAU4_BODY.replace("tau = 4", "cens = none\ntau = -2"), "tau"),
        (TAU4_BODY.replace("n = 50", "n = 50\nn = 100"), "n"),
        (PREDICTION_BODY + "epsilon = 0.1\n", "epsilon"),
    ],
    ids=["prediction-error", "prediction-x2", "estimation-x", "tau-beside-cens-none", "n-twice",
         "epsilon-without-theoretical"],
)
def test_cmd_simulate_key_it_would_ignore_exits_config_error(tmp_path, capsys, body, key):
    cfg = tmp_path / "ignored.cfg"
    cfg.write_text(body)
    assert _simulate_csv(cfg, tmp_path / "out.csv")[0] == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"{key!r}" in err


@pytest.mark.parametrize("command", ["predict-cv"])
def test_seed_flag_only_where_it_is_read(tmp_path, linear_csv, command):
    code = main([command, "--input", linear_csv, "--response", "time", "--event", "status",
                 "--covariates", "x1,x2", "--seed", "3", "--output", str(tmp_path / "cv.csv")])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------- bundled configs


def test_bundled_configs_cover_both_tables():
    names = sorted(p.name for p in CONFIG_DIR.iterdir() if p.name.endswith(".cfg"))
    assert len(names) == 90
    t1 = [n for n in names if n.startswith("table1_")]
    t2 = [n for n in names if n.startswith("table2_")]
    assert len(t1) == 60 and len(t2) == 30
    # every file parses into a valid scenario; grids are complete
    seen_est = set()
    seen_pred = set()
    for name in names:
        sc = parse_scenario_text(CONFIG_DIR.joinpath(name).read_text())
        assert sc.replications == 1000
        if sc.study == "estimation":
            seen_est.add(
                (sc.error.kind, sc.covariates[1].kind, sc.covariates[1].params,
                 sc.censoring.tau, sc.n)
            )
        else:
            tau = None if sc.censoring is None else sc.censoring.tau
            seen_pred.add((sc.covariates[0].params, tau, sc.n))
    assert len(seen_est) == 60
    assert len(seen_pred) == 30
