"""CLI behavior: flag handling, output formats, exit codes, sweeps,
validation runs and trace fitting, exercised in process through main()."""
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kmusec
from kmusec import estimate as em
from kmusec import secrecy
from kmusec.cli import SweepSpec, build_parser, main, pair_from_args
from kmusec.estimate import EnvelopeTrace, sample_envelope, write_trace_binary
from kmusec.fading import KappaMuParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSpsc:
    def test_rayleigh_preset(self, capsys):
        rec = run_json(capsys, "spsc", "--preset", "rayleigh",
                       "--gbar-m-db", "4.771", "--gbar-e-db", "0")
        # 4.771 dB is a mean-SNR ratio of 2.9998
        assert rec["value"] == pytest.approx(0.75, abs=1e-4)
        assert rec["schema"] == 1
        assert rec["metric"] == "spsc"

    def test_scenario_alias_matches_figure_preset(self, capsys):
        a = run_json(capsys, "spsc", "--preset", "rayleigh", "--gbar-m-db", "3")
        b = run_json(capsys, "spsc", "--preset", "fig2-rayleigh",
                     "--gbar-m-db", "3")
        assert a["value"] == b["value"]

    def test_identical_channels(self, capsys):
        rec = run_json(capsys, "spsc", "--km", "2", "--um", "1.3",
                       "--ke", "2", "--ue", "1.3")
        assert rec["value"] == pytest.approx(0.5, abs=1e-6)

    def test_rice_flags_select_closed_form(self, capsys):
        from kmusec.secrecy import spsc_rice_reference
        rec = run_json(capsys, "spsc", "--km", "15", "--um", "1",
                       "--ke", "12", "--ue", "1",
                       "--gbar-m-db", "0", "--gbar-e-db", "0")
        assert rec["method"] == "closed_form"
        assert rec["value"] == pytest.approx(
            spsc_rice_reference(15.0, 12.0, 1.0, 1.0), abs=1e-10)

    @pytest.mark.parametrize("preset,method", [
        ("fig2-rice", "closed_form"),      # integer mu, kappa above the floor
        ("fig2-nakagami", "series"),       # integer mu, kappa below the floor
        ("fig2-rayleigh", "series"),
        ("fig4", "series"),                # non-integer mu
        ("d2d", "series")])
    def test_auto_method_tags(self, capsys, preset, method):
        assert run_json(capsys, "spsc", "--preset", preset)["method"] == method

    def test_method_override(self, capsys):
        args = ["spsc", "--km", "15", "--um", "1", "--ke", "12", "--ue", "1"]
        series = run_json(capsys, *args, "--method", "series")
        closed = run_json(capsys, *args, "--method", "closed")
        quadr = run_json(capsys, *args, "--method", "quadrature")
        assert series["method"] == "series"
        assert closed["method"] == "closed_form"
        assert quadr["method"] == "quadrature"
        assert series["value"] == pytest.approx(closed["value"], abs=1e-8)
        assert series["value"] == pytest.approx(quadr["value"], abs=1e-6)

    def test_mc_method_deterministic(self, capsys):
        args = ["spsc", "--preset", "d2d", "--method", "mc",
                "--mc-n", "50000", "--seed", "9"]
        a = run_json(capsys, *args)
        b = run_json(capsys, *args)
        assert a == b
        assert a["method"] == "monte_carlo"

    def test_db_equals_linear(self, capsys):
        a = run_json(capsys, "spsc", "--preset", "d2d", "--gbar-m-db", "7")
        b = run_json(capsys, "spsc", "--preset", "d2d",
                     "--gbar-m-linear", repr(10.0 ** 0.7))
        assert abs(a["value"] - b["value"]) <= 1e-12

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "spsc", "--preset", "d2d", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["metric", "value"]
        assert 0.0 <= float(rows[1][1]) <= 1.0

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "spsc", "--km", "2")
        assert code == 2
        assert "error" in err

    def test_invalid_parameter_exit_2(self, capsys):
        code, _, _ = run(capsys, "spsc", "--km", "-1", "--um", "1",
                         "--ke", "1", "--ue", "1")
        assert code == 2

    def test_non_convergence_exit_3(self, capsys):
        code, _, err = run(capsys, "spsc", "--km", "50", "--um", "10",
                           "--ke", "45", "--ue", "9", "--method", "series",
                           "--max-terms", "20")
        assert code == 3
        assert "convergence" in err

    def test_quadrature_limit_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(secrecy, "QuadSpec", functools.partial(secrecy.QuadSpec, limit=1))
        for argv in (("sop", "--preset", "fig4"),
                     ("spsc", "--preset", "d2d", "--method", "quadrature")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert "convergence error: secure outage quadrature" in err


def _child(args, timeout):
    # a child interpreter on this library, killed after ``timeout`` s
    src = os.path.dirname(os.path.dirname(os.path.abspath(kmusec.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


def _cli_subprocess(argv, timeout):
    # ``kmusec argv`` in a child interpreter, killed after ``timeout`` s
    return _child(["-m", "kmusec.cli", *argv], timeout)


def test_non_finite_quadrature_exit_3():
    # scipy's noncentral chi-square returns NaN at kappa 1e9, mu 10; the
    # quadrature used to loop on empty passes forever
    proc = _cli_subprocess(("sop", "--km", "1e9", "--um", "10", "--ke", "1", "--ue", "1",
                            "--rate-nats", "0.1"), timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "not finite" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("--km", "1", "--um", "1", "--ke", "1", "--ue", "1e20"),
    ("--km", "1", "--um", "1e9", "--gbar-m-linear", "1e12", "--ke", "1", "--ue", "1")])
def test_closed_form_term_cap_exit_3(argv):
    # the closed form used to walk every Bessel order and index without
    # end (mu 1e20), or silently through underflowing terms (mu 1e9)
    proc = _cli_subprocess(("spsc", *argv), timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "more than max_terms=10000" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("spsc", "--preset", "fig4", "--gbar-m-db", "1e6"),
    ("spsc", "--preset", "fig2-rice", "--km", "inf"),
    ("spsc", "--preset", "fig4", "--gbar-m-linear", "inf"),
    ("sop", "--preset", "fig4", "--rate-nats", "inf"),
    ("spsc", "--preset", "d2d", "--abs-tol", "inf")])
def test_non_finite_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("spsc", "--gbar-m-linear", "1e100", "--method", "series"),
    ("spsc", "--gbar-e-linear", "1e-200", "--method", "series"),
    ("sop", "--gbar-m-linear", "1e100", "--bound", "lower")])
def test_extreme_snr_ratio_exit_0(capsys, argv):
    # valid input with one tail far below double precision
    code, out, err = run(capsys, argv[0], "--km", "1", "--um", "1",
                         "--ke", "1", "--ue", "1", *argv[1:])
    assert (code, err) == (0, "")
    assert 0.0 <= json.loads(out)["value"] <= 1.0


@pytest.mark.parametrize("flag", ["--start", "--stop"])
@pytest.mark.parametrize("bound", ["inf", "nan"])
def test_sweep_non_finite_bound_exit_2(capsys, flag, bound):
    bounds = {"--start": "0", "--stop": "1", flag: bound}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        code, out, err = run(capsys, "sweep", "--preset", "d2d", "--variable", "rate",
                             "--steps", "3", *(x for kv in bounds.items() for x in kv))
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be finite, got {bound}\n"


@pytest.mark.parametrize("argv", [
    ("spsc", "--km", "1e200", "--um", "1", "--ke", "1", "--ue", "1", "--method", "series"),
    ("sop", "--km", "1e308", "--um", "1", "--ke", "1", "--ue", "1", "--bound", "lower"),
    ("sweep", "--preset", "d2d", "--variable", "kappa_m", "--start", "1",
     "--stop", "1e308", "--steps", "3"),
    ("spsc", "--km", "1", "--um", "1", "--ke", "1e308", "--ue", "1"),
    ("spsc", "--km", "1", "--um", "1", "--ke", "1", "--ue", "500", "--method", "closed")])
def test_huge_finite_shape_exit_3(capsys, argv):
    # valid input that the kernels cannot carry in double precision
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("convergence error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["spsc", "--km", "1", "--um", "1e308", "--ke", "1", "--ue", "1", "--method", "series"],
    ["spsc", "--km", "1", "--um", "1", "--ke", "1", "--ue", "1e308", "--method", "series"]])
def test_huge_mu_exit_3(capsys, argv):
    # the rate (1+kappa) mu / gbar overflows to inf at mu 1e308; a kernel
    # summing on with it once gave SPSC 0.0 (or 1.0), exit 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "gamma-mixture shape, mean or rate is not finite" in err


@pytest.mark.parametrize("argv", [
    ("spsc", "--km", "0", "--um", "60", "--gbar-m-linear", "0.25", "--ke", "0", "--ue", "2500",
     "--gbar-e-linear", "5"),
    ("sop", "--km", "0", "--um", "60", "--gbar-m-linear", "0.25", "--ke", "0", "--ue", "2500",
     "--gbar-e-linear", "5", "--bound", "lower"),
    ("spsc", "--km", "1000", "--um", "10.5", "--gbar-m-linear", "1", "--ke", "1", "--ue", "1",
     "--gbar-e-linear", "0.001", "--method", "series")])
def test_overflowed_series_term_exit_3(capsys, argv):
    # the survival series' 2F1 seed overflows past a shape or a Poisson
    # mean of about a thousand on the larger-rate side; counted as a zero
    # term, it once printed SPSC 1.0 (truth about 0), SOP^L 0.0 and SPSC
    # 0.0 (Monte Carlo 1.0), each with exit 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "survival series cannot be evaluated in double precision" in err


_SMALL_MU = ("--km", "0", "--um", "0.05", "--ke", "0", "--ue", "0.05")


def test_small_mu_monte_carlo_exit_0():
    # with mu 0.05 on both links many drawn SNRs are tiny: the exact outage
    # threshold e^R (1 + gamma_E) - 1 rounded such a gamma_E to 0 at rate 0,
    # and a runtime check of the lower bound's inclusion in the exact event
    # then ended both commands with a traceback (exit 1)
    proc = _cli_subprocess(("sop", *_SMALL_MU, "--method", "mc", "--mc-n", "100000"),
                           timeout=60)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert (rec["metric"], rec["method"], rec["terms_k"]) == ("sop_exact", "monte_carlo",
                                                               100_000)
    assert 0.0 < rec["value"] < 1.0
    proc = _cli_subprocess(("sweep", *_SMALL_MU, "--variable", "rate", "--start", "0",
                            "--stop", "1", "--steps", "2", "--with-mc", "10000"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [float(row["value"]) for row in rows] == [0.0, 1.0]
    at_zero = {key: float(value) for key, value in rows[0].items() if key != "variable"}
    # at rate 0 the exact and the lower-bound event are the complement of the
    # SPSC event on the same draws
    assert at_zero["mc_sop_exact"] == at_zero["mc_sop_lower"]
    assert at_zero["mc_sop_exact"] + at_zero["mc_spsc"] == pytest.approx(1.0, abs=1e-12)
    assert float(rows[1]["mc_sop_lower"]) <= float(rows[1]["mc_sop_exact"])


@pytest.mark.parametrize("argv", [
    ("--gbar-e-linear", "1e-320", "--method", "closed"),
    ("--gbar-m-linear", "1e308", "--gbar-e-linear", "1e-308"),
    ("--gbar-m-linear", "1e-320"),
    ("--km", "1e308", "--um", "2", "--method", "closed")])
def test_mean_snr_ratio_beyond_double_exit_3(capsys, argv):
    # the closed form's ratio r = sqrt(beta_M / beta_E) is 0 or infinite,
    # or B is: it fails as the series does past a double, and auto's
    # fallback to the series fails there too
    code, out, err = run(capsys, "spsc", "--km", "1", "--um", "1", "--ke", "1",
                         "--ue", "1", *argv)
    assert (code, out) == (3, "")
    assert "double precision" in err


@pytest.mark.parametrize("ue", ["500", "2000"])
def test_auto_spsc_takes_series_past_closed_form_overflow(capsys, ue):
    # integer mu selects the closed form, whose powers overflow here (exit
    # 3 with --method closed); auto answers by the series instead
    argv = ("spsc", "--km", "1", "--um", "1", "--ke", "1", "--ue", ue)
    auto = run_json(capsys, *argv)
    assert auto == run_json(capsys, *argv, "--method", "series")
    assert auto["method"] == "series"


class TestParserReuse:
    """main() builds its parser once per process. Successive calls with
    other subcommands, usage errors and help print and exit as calls on a
    freshly built parser do."""

    ARGVS = (["spsc", "--preset", "fig2-rice"], ["--help"], ["sop", "--help"],
             ["spsc", "--method", "bogus"], ["sweep", "--preset", "fig4"], ["fit"],
             ["sop", "--preset", "fig4", "--bound", "lower", "--format", "csv"],
             ["spsc", "--preset", "d2d", "--seed", "x"], ["spsc", "--preset", "fig2-rice"])

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # help and usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_successive_calls_match_fresh_parsers(self, capsys):
        from kmusec import cli

        fresh = []
        for argv in self.ARGVS:
            cli._parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        reused = [self.call(capsys, argv) for argv in self.ARGVS]
        assert cli._parser.cache_info().misses == 1
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 2, 2, 0, 2, 0]
        assert reused == fresh


class TestSop:
    def test_lower_is_spsc_complement(self, capsys):
        spsc = run_json(capsys, "spsc", "--preset", "d2d", "--method", "series")
        sop = run_json(capsys, "sop", "--preset", "d2d", "--rate-nats", "0",
                       "--bound", "lower")
        assert sop["value"] + spsc["value"] == pytest.approx(1.0, abs=1e-8)

    def test_exact_at_least_lower(self, capsys):
        exact = run_json(capsys, "sop", "--preset", "fig4", "--gbar-m-db", "7")
        lower = run_json(capsys, "sop", "--preset", "fig4", "--gbar-m-db", "7",
                         "--bound", "lower")
        assert exact["value"] >= lower["value"] - 1e-9
        assert exact["metric"] == "sop_exact"
        assert lower["metric"] == "sop_lower"

    def test_rate_bits_conversion(self, capsys):
        nats = run_json(capsys, "sop", "--preset", "d2d", "--rate-nats",
                        repr(math.log(2.0)), "--bound", "lower")
        bits = run_json(capsys, "sop", "--preset", "d2d", "--rate-bits", "1",
                        "--bound", "lower")
        assert nats["value"] == pytest.approx(bits["value"], abs=1e-14)

    def test_preset_rate_applies(self, capsys):
        rec = run_json(capsys, "sop", "--preset", "fig4")
        assert rec["params"]["rate_nats"] == pytest.approx(10 ** 0.1)

    @pytest.mark.parametrize("bound", ["exact", "lower"])
    def test_mc_rate_beyond_exp_overflow(self, capsys, bound):
        # e^800 overflows a double, so 800 nats is no rate; at 705 every
        # draw's event says outage
        argv = ("sop", "--preset", "d2d", "--method", "mc", "--mc-n", "1000",
                "--bound", bound)
        code, out, err = run(capsys, *argv, "--rate-nats", "800")
        assert (code, out) == (2, "")
        assert err.startswith("error: rate must be between 0 and 709.78")
        rec = run_json(capsys, *argv, "--rate-nats", "705")
        assert rec["value"] == 1.0
        assert rec["metric"] == f"sop_{bound}"

    @pytest.mark.parametrize("rate", [("--rate-nats", "800"), ("--rate-bits", "1100")])
    def test_rate_beyond_exp_overflow_exit_2(self, capsys, rate):
        code, out, err = run(capsys, "sop", "--preset", "d2d", *rate)
        assert (code, out) == (2, "")
        bound = {"--rate-nats": "709.782712893384 nats", "--rate-bits": "1024.0 bits"}[rate[0]]
        assert err.startswith(f"error: rate must be between 0 and {bound}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bits", ["1100", "-1", "nan"])
    def test_rate_bits_refused_in_bits(self, capsys, bits):
        # the refusal names the bits given, not their value in nats
        code, out, err = run(capsys, "sop", "--preset", "d2d", "--rate-bits", bits)
        assert (code, out) == (2, "")
        assert err == (f"error: rate must be between 0 and 1024.0 bits, where e^rate is "
                       f"a double, got {float(bits)}\n")

    def test_rate_bits_bound_is_the_nats_bound(self):
        # 1024 bits is 709.78 nats, the largest rate a pair admits
        args = build_parser().parse_args(["sop", "--preset", "d2d", "--rate-bits", "1024"])
        assert pair_from_args(args).rate == secrecy._MAX_RATE

    def test_main_rate_times_exp_rate_overflow_exit_3(self, capsys):
        # the main rate 2e4 times e^700 overflows: no series is summed on it
        code, out, err = run(capsys, "sop", "--km", "1", "--um", "1", "--ke", "1",
                             "--ue", "1", "--gbar-m-db", "-40", "--rate-nats", "700",
                             "--bound", "lower")
        assert (code, out) == (3, "")
        assert "double precision" in err


class TestSweep:
    def test_constant_for_identical_channels(self, capsys):
        code, out, _ = run(capsys, "sweep", "--km", "2", "--um", "1.1",
                           "--ke", "2", "--ue", "1.1",
                           "--variable", "rate", "--start", "0",
                           "--stop", "1", "--steps", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        for row in rows:
            assert float(row["spsc"]) == pytest.approx(0.5, abs=1e-6)

    def test_rayleigh_curve_matches_formula(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "fig2-rayleigh",
                           "--variable", "gamma_bar_m_db",
                           "--start", "-10", "--stop", "10", "--steps", "5")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            g = 10.0 ** (float(row["value"]) / 10.0)
            assert float(row["spsc"]) == pytest.approx(g / (g + 1.0), abs=1e-6)

    @pytest.mark.parametrize("preset", ["fig2-rice", "fig2-nakagami",
                                        "fig2-rayleigh", "fig4"])
    def test_assert_monotone_passes_on_presets(self, capsys, preset):
        code, out, err = run(capsys, "sweep", "--preset", preset,
                             "--variable", "gamma_bar_m_db",
                             "--start", "-10", "--stop", "30", "--steps", "9",
                             "--assert-monotone")
        assert code == 0, err

    @pytest.mark.parametrize("argv", [
        ("--preset", "ban", "--gbar-m-db", "5", "--variable", "kappa_e",
         "--start", "0.5", "--stop", "8"),
        ("--preset", "v2v", "--gbar-m-db", "5", "--variable", "mu_e",
         "--start", "0.5", "--stop", "3"),
        ("--preset", "ban", "--gbar-m-db", "-5", "--variable", "kappa_m",
         "--start", "0.5", "--stop", "8"),
        ("--preset", "v2v", "--gbar-m-db", "-5", "--variable", "mu_m",
         "--start", "0.5", "--stop", "3"),
    ])
    def test_assert_monotone_skips_shape_variables(self, capsys, argv):
        # on these correct curves SPSC moves against the trend once expected
        # of the swept shape parameter; that trend is no law of the model,
        # so --assert-monotone must pass them
        code, _, err = run(capsys, "sweep", *argv, "--steps", "4",
                             "--assert-monotone")
        assert code == 0, err
        assert err == ""

    def test_csv_round_trip_lossless(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "d2d",
                           "--variable", "gamma_bar_m_db",
                           "--start", "-5", "--stop", "5", "--steps", "4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        values = [float(r["spsc"]) for r in rows]
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["spsc"])
        for v in values:
            w.writerow([repr(v)])
        again = [float(r["spsc"]) for r in csv.DictReader(io.StringIO(buf.getvalue()))]
        assert again == values

    def test_atomic_output_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "sweep", "--preset", "d2d",
                           "--variable", "gamma_bar_m_db",
                           "--start", "0", "--stop", "6", "--steps", "3",
                           "--output", str(target))
        assert code == 0
        assert out == ""
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 3
        assert not list(tmp_path.glob(".kmusec-*"))

    def test_with_mc_reproducible(self, capsys):
        args = ["sweep", "--preset", "d2d", "--variable", "gamma_bar_m_db",
                "--start", "0", "--stop", "3", "--steps", "2",
                "--with-mc", "20000", "--seed", "5"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        rows = list(csv.DictReader(io.StringIO(out1)))
        for row in rows:
            assert 0.0 <= float(row["mc_spsc"]) <= 1.0
            assert float(row["mc_sop_lower"]) <= float(row["mc_sop_exact"])

    def test_bad_grid_exit_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--preset", "d2d",
                         "--variable", "rate", "--start", "1",
                         "--stop", "0", "--steps", "3")
        assert code == 2

    def test_probabilities_in_range(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "ban",
                           "--variable", "kappa_e", "--start", "0.5",
                           "--stop", "8", "--steps", "4")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            for col in ("spsc", "sop_exact", "sop_lower"):
                assert 0.0 <= float(row[col]) <= 1.0


class TestValidate:
    def test_small_grid_passes(self, capsys):
        code, out, err = run(capsys, "validate", "--grid", "small",
                             "--mc-n", "50000")
        assert code == 0, err
        report = json.loads(out)
        assert report["pass"] is True
        assert {c["name"] for c in report["checks"]} == {
            "series_vs_closed_form", "series_vs_quadrature",
            "series_vs_monte_carlo_3se", "complement_identity_rate0",
            "bound_ordering"}

    def test_self_test_break_fails(self, capsys):
        code, out, _ = run(capsys, "validate", "--grid", "small",
                           "--mc-n", "50000", "--self-test-break")
        assert code == 4
        report = json.loads(out)
        assert report["pass"] is False


@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
@pytest.mark.parametrize("argv", [
    ("spsc", "--preset", "d2d", "--method", "mc", "--mc-n", "1000"),
    ("sop", "--preset", "d2d", "--method", "mc", "--mc-n", "1000"),
    ("sweep", "--preset", "d2d", "--variable", "gamma_bar_m_db", "--start", "0",
     "--stop", "3", "--steps", "2", "--with-mc", "1000"),
    ("validate", "--grid", "small", "--mc-n", "1000")])
def test_seed_out_of_range_exit_2(capsys, argv, seed):
    # the Philox key takes 0..2^128 - 1; the message names the seed
    code, out, err = run(capsys, *argv, "--seed", seed)
    assert code == 2
    assert out == ""
    assert f"seed must be in 0..2**128 - 1, got {seed}" in err


@pytest.mark.parametrize("argv,seed,count", [
    (("sweep", "--preset", "d2d", "--variable", "gamma_bar_m_db", "--start", "0",
      "--stop", "3", "--steps", "2", "--with-mc", "1000"), 2 ** 128 - 1, 2),
    (("validate", "--grid", "small", "--mc-n", "1000"), 2 ** 128 - 11, 12)])
def test_seed_span_beyond_range_exit_2(capsys, survival_calls, argv, seed, count):
    # point i draws from seed + i: a seed in range whose last point's seed
    # is not is refused before any work, naming the seed typed and the count
    code, out, err = run(capsys, *argv, "--seed", str(seed))
    assert (code, out) == (2, "")
    assert f"seed {seed} with {count} points" in err
    assert f"at most 2**128 - {count}" in err
    assert survival_calls == []
    code, out, err = run(capsys, *argv, "--seed", str(seed - 1))
    assert code == 0, err


class TestSharedSeries:
    """SPSC and SOP^L at rate 0 are the two sides of one survival series,
    and SPSC does not depend on the rate, so each distinct survival
    probability of a sweep or validation run costs one kernel call."""

    @pytest.mark.parametrize("argv,calls", [
        (("sweep", "--preset", "d2d", "--variable", "gamma_bar_m_db",
          "--start", "-10", "--stop", "30", "--steps", "41"), 41),
        (("sweep", "--preset", "fig4", "--gbar-m-db", "10", "--variable", "rate",
          "--start", "0", "--stop", "2.5", "--steps", "41"), 41),
        # fig4 carries a 10^(1/10)-nat rate: SPSC and SOP^L differ
        (("sweep", "--preset", "fig4", "--variable", "gamma_bar_m_db",
          "--start", "-10", "--stop", "30", "--steps", "41"), 82),
        (("validate", "--grid", "small", "--mc-n", "50000"), 36)])
    def test_kernel_calls(self, capsys, survival_calls, argv, calls):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(survival_calls) == calls

    @pytest.mark.parametrize("argv", [
        ("--preset", "fig4", "--gbar-m-db", "10", "--variable", "rate",
         "--start", "0", "--stop", "2.5"),
        ("--preset", "ban", "--gbar-m-db", "5", "--variable", "kappa_m",
         "--start", "0.5", "--stop", "8")])
    def test_rows_equal_separate_calls(self, capsys, argv):
        argv = ("sweep", *argv, "--steps", "6")
        args = build_parser().parse_args(argv)
        spec = SweepSpec(args.variable, args.start, args.stop, args.steps,
                         pair_from_args(args))
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        for row, value in zip(rows, spec.grid()):
            pair = spec.pair_at(value)
            assert row["spsc"] == repr(secrecy.spsc_series(pair).value)
            assert row["sop_lower"] == repr(secrecy.sop_lower(pair).value)


class TestBatchedExactSop:
    """A sweep evaluates its exact SOPs in one batched quadrature, and each
    row holds what ``kmusec sop`` prints for that point."""

    FLAGS = {"gamma_bar_m_db": "--gbar-m-db", "gamma_bar_e_db": "--gbar-e-db",
             "kappa_m": "--km", "kappa_e": "--ke", "mu_m": "--um", "mu_e": "--ue",
             "rate": "--rate-nats"}

    @pytest.mark.parametrize("base,variable,start,stop", [
        (("--preset", "fig4"), "gamma_bar_m_db", "-10", "30"),
        (("--preset", "d2d"), "gamma_bar_e_db", "-10", "30"),
        (("--preset", "ban", "--gbar-m-db", "5"), "kappa_m", "0.5", "8"),
        (("--preset", "ban", "--gbar-e-db", "5"), "kappa_e", "0.5", "8"),
        (("--preset", "v2v", "--gbar-m-db", "5"), "mu_m", "0.5", "3"),
        (("--preset", "v2v", "--gbar-e-db", "5"), "mu_e", "0.3", "3"),
        (("--preset", "fig4", "--gbar-m-db", "10"), "rate", "0", "705")])
    def test_rows_equal_sop_command(self, capsys, base, variable, start, stop):
        code, out, err = run(capsys, "sweep", *base, "--variable", variable,
                             "--start", start, "--stop", stop, "--steps", "6")
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        for row in rows:
            sop = run_json(capsys, "sop", *base, self.FLAGS[variable], row["value"])
            assert row["sop_exact"] == repr(sop["value"])

    def test_one_failing_point_exit_3(self, capsys, monkeypatch):
        # the point at 10 dB meets a NaN distribution function, as scipy's
        # noncentral chi-square gives at kappa 1e9: the whole sweep fails
        cdf = secrecy.fading._distribution

        def failing(kappa, mu, gbar, g):
            out = cdf(kappa, mu, gbar, g)
            return np.where(np.broadcast_to(gbar, out.shape) == 10.0, np.nan, out)

        monkeypatch.setattr(secrecy.fading, "_distribution", failing)
        code, out, err = run(capsys, "sweep", "--preset", "d2d", "--variable",
                             "gamma_bar_m_db", "--start", "-10", "--stop", "30",
                             "--steps", "5")
        assert (code, out) == (3, "")
        assert "secure outage quadrature: the integrand is not finite" in err


class TestFit:
    def test_fit_synthetic(self, capsys, tmp_path):
        trace = sample_envelope(KappaMuParams(2.0, 1.5, 1.0), 100_000, seed=1)
        path = tmp_path / "trace.bin"
        write_trace_binary(path, trace)
        rec = run_json(capsys, "fit", "--trace", str(path))
        assert 1.7 <= rec["kappa_hat"] <= 2.3
        assert 1.35 <= rec["mu_hat"] <= 1.65

    def test_power_input_kind(self, capsys, tmp_path):
        trace = sample_envelope(KappaMuParams(2.0, 1.5, 1.0), 50_000, seed=2)
        path = tmp_path / "power.csv"
        path.write_text("power\n" + "\n".join(
            repr(float(v) ** 2) for v in trace.samples) + "\n")
        rec = run_json(capsys, "fit", "--trace", str(path),
                       "--input-kind", "power")
        assert abs(rec["kappa_hat"] - 2.0) / 2.0 <= 0.25
        assert abs(rec["mu_hat"] - 1.5) / 1.5 <= 0.15

    def test_constant_trace_exit_2(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("\n".join(["2.0"] * 5000))
        code, _, err = run(capsys, "fit", "--trace", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("width", ["0", "-0.1", "nan", "inf", "1e-5"])
    def test_bad_bin_width_exit_2(self, capsys, tmp_path, width):
        # 1e-5 would give about 2e5 bins for 2e4 samples
        path = tmp_path / "trace.bin"
        write_trace_binary(path, sample_envelope(KappaMuParams(2.0, 1.5, 1.0), 20_000,
                                                 seed=1))
        code, out, err = run(capsys, "fit", "--trace", str(path), f"--bin-width={width}")
        assert (code, out) == (2, "")
        assert err.startswith("error: bin width ")
        assert err.count("\n") == 1

    def test_fit_leaves_scipy_optimize_unimported(self, tmp_path):
        # the simplex search is the library's own; scipy's optimizer is
        # only the tests' reference for it
        path = tmp_path / "trace.bin"
        write_trace_binary(path, sample_envelope(KappaMuParams(2.0, 1.5, 1.0), 5000, seed=1))
        proc = _child(["-c", "import sys; from kmusec import cli; "
                             "code = cli.main(['fit', '--trace', sys.argv[1]]); "
                             "print(code, 'scipy.optimize' in sys.modules)", str(path)],
                      timeout=120)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr

    @pytest.mark.parametrize("outlier", [1e3, 1e9])
    def test_outlier_default_bin_width_exit_2(self, capsys, tmp_path, outlier):
        # one far sample: the default width would give about 32,000 bins
        # at 1e3 and 3e10 at 1e9 for 2e4 samples
        samples = sample_envelope(KappaMuParams(2.0, 1.5, 1.0), 20_000, seed=1).samples
        samples = samples.copy()
        samples[0] = outlier
        path = tmp_path / "trace.bin"
        write_trace_binary(path, EnvelopeTrace(samples))
        code, out, err = run(capsys, "fit", "--trace", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: default (Freedman-Diaconis) bin width ")
        assert err.endswith("; pass a wider bin width (--bin-width)\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_exit_2(self, capsys, tmp_path, suffix, bad):
        samples = np.linspace(0.1, 3.0, 2000)
        samples[7] = bad
        path = tmp_path / f"trace{suffix}"
        if suffix == ".bin":
            path.write_bytes(em.TRACE_MAGIC + samples.astype("<f4").tobytes())
        else:
            path.write_text("envelope\n" + "\n".join(map(repr, samples.tolist())))
        code, out, err = run(capsys, "fit", "--trace", str(path))
        assert (code, out) == (2, "")
        assert err == "error: cannot read trace: trace samples must be finite\n"

    @staticmethod
    def scaled_csv(tmp_path, scale):
        # a text trace keeps the doubles, which the float32 format cannot
        samples = sample_envelope(KappaMuParams(2.0, 1.2, 1.0), 20_000, seed=9).samples * scale
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(map(repr, samples.tolist())))
        return path, samples

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_rms_outside_range_exit_2(self, capsys, tmp_path, scale):
        # at 1e-160 the residual's terms overflowed and the fit ended in a
        # traceback; at 1e160 they were subnormal and r_hat printed as
        # Infinity
        path, samples = self.scaled_csv(tmp_path, scale)
        code, out, err = run(capsys, "fit", "--trace", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: trace RMS {em._rms(samples):.6g} is outside 1e-100 to "
                       f"1e+100, the range a fit admits; rescale the trace\n")

    @pytest.mark.parametrize("scale", [2.0 ** -332, 2.0 ** 332])
    def test_rms_at_range_ends_fit(self, capsys, tmp_path, scale):
        # both just inside the range: strict JSON with the RMS scaled exactly
        path, samples = self.scaled_csv(tmp_path, scale)
        code, out, err = run(capsys, "fit", "--trace", str(path))
        assert code == 0, err

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        rec = json.loads(out, parse_constant=refuse)
        assert rec["r_hat"] == em._rms(samples) == scale * em._rms(samples / scale)
        assert 1.8 <= rec["kappa_hat"] <= 2.6 and 1.0 <= rec["mu_hat"] <= 1.3

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "fit", "--trace", "/nonexistent/trace.csv")
        assert code == 2

    def test_window_improves_shadowed_fit(self, capsys, tmp_path):
        params = KappaMuParams(2.0, 1.5, 1.0)
        n = 60_000
        clean = sample_envelope(params, n, seed=31).samples
        shadow = 1.0 + 0.4 * np.sin(2.0 * math.pi * np.arange(n) / 8000.0)
        path = tmp_path / "shadowed.bin"
        write_trace_binary(path, EnvelopeTrace(clean * shadow))
        raw = run_json(capsys, "fit", "--trace", str(path), "--window", "0")
        norm = run_json(capsys, "fit", "--trace", str(path), "--window", "501")
        assert norm["residual"] < raw["residual"]

    def test_emit_pdf_grid(self, capsys, tmp_path):
        trace = sample_envelope(KappaMuParams(1.5, 1.0, 1.0), 20_000, seed=8)
        path = tmp_path / "trace.bin"
        write_trace_binary(path, trace)
        grid_path = tmp_path / "pdf.csv"
        code, out, _ = run(capsys, "fit", "--trace", str(path),
                           "--emit-pdf-grid", str(grid_path))
        assert code == 0
        rows = list(csv.DictReader(grid_path.open()))
        assert len(rows) > 8
        assert {"envelope", "empirical_density", "fitted_density"} == set(rows[0])
