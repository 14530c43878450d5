import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delaymoments
from delaymoments import reference
from delaymoments.algebra import (
    VAR_GAMMA,
    VAR_INV_GAMMA,
    Polynomial,
    RationalFunction,
)
from delaymoments.cli import (
    document_for_series,
    main,
    render_json,
    render_latex,
    render_text,
)
from delaymoments.stats import (
    SCOPES,
    STATISTICS,
    RegimeRequest,
    StatisticRequest,
    compute_statistic,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, stdout=subprocess.PIPE, **env):
    """Run python with `args` in a fresh interpreter that imports this
    package, with `env` set in its environment (None unsets a variable);
    returns (exit code, stdout, stderr)."""
    src = str(Path(delaymoments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
    env = {name: value for name, value in env.items() if value is not None}
    proc = subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def run_cold(*argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stdout, stderr)."""
    return run_python("-m", "delaymoments.cli", *argv)


SERIES_TEXT = {
    "--schur 2 --regime inv-m --order 2": (
        "statistic: Schur moment, shape 2\n"
        "regime: inv-m   guaranteed order: 2   coefficients in: g\n"
        "  (1/M)^-2: 1/2(1+g)^2\n"
        "  (1/M)^-1: (g^2+2g+2)/2(1+g)^4\n"
        "  (1/M)^0: (g^2-2g+2)/2(1+g)^6\n"
        "  (1/M)^1: (-4g^3+g^2-14g+2)/2(1+g)^8\n"
        "  (1/M)^2: (8g^4-44g^3+93g^2-42g+2)/2(1+g)^10\n"),
    "--wigner-moment 1 --regime gamma --order 2": (
        "statistic: Wigner time delay moment, n=1\n"
        "regime: gamma   guaranteed order: 2   coefficients in: M\n"
        "  g^0: 1\n"
        "  g^1: -M^2/(M^2-1)\n"
        "  g^2: M^4/(M^2-1)(M^2-4)\n"),
    "--wigner-moment 1 --regime inv-gamma --order 3": (
        "statistic: Wigner time delay moment, n=1\n"
        "regime: inv-gamma   guaranteed order: 3   coefficients in: M\n"
        "  (1/g)^1: 1\n"
        "  (1/g)^2: -1\n"
        "  (1/g)^3: 1\n"),
}

SERIES_LATEX = {
    "--schur 2 --regime inv-m --order 2": (
        r"\frac{1}{2(1+\gamma)^{2}}\,M^{2} + \frac{\gamma^{2}+2\gamma+2}"
        r"{2(1+\gamma)^{4}}\,M + \frac{\gamma^{2}-2\gamma+2}{2(1+\gamma)^{6}}"
        r" + \frac{-4\gamma^{3}+\gamma^{2}-14\gamma+2}{2(1+\gamma)^{8}}\,"
        r"\frac{1}{M} + \frac{8\gamma^{4}-44\gamma^{3}+93\gamma^{2}-42\gamma"
        r"+2}{2(1+\gamma)^{10}}\,\frac{1}{M^{2}} + O(M^{-3})"),
    "--wigner-moment 1 --regime gamma --order 2": (
        r"1 - \frac{M^{2}}{M^{2}-1}\,\gamma + \frac{M^{4}}{(M^{2}-1)"
        r"(M^{2}-4)}\,\gamma^{2} + O(\gamma^{3})"),
    "--wigner-moment 1 --regime inv-gamma --order 3": (
        r"\frac{1}{\gamma} - \frac{1}{\gamma^{2}} + \frac{1}{\gamma^{3}}"
        r" + O(\gamma^{-4})"),
}


def test_series_text_output(capsys):
    code, out, err = run_cli(
        capsys, "series", "--cumulant", "2", "--regime", "inv-m", "--order", "4")
    assert code == 0
    assert "(g^2+2)/(1+g)^6" in out
    assert "(8g^4-28g^3+68g^2-40g+2)/(1+g)^10" in out
    assert "# computed in" in err
    # One request per regime, powers below, at and above 0 included.
    for argv, want in SERIES_TEXT.items():
        code, out, _ = run_cli(capsys, "series", *argv.split())
        assert (code, out) == (0, want)


def test_series_deterministic_stdout(capsys):
    _, first, _ = run_cli(
        capsys, "series", "--trace-powers", "2", "--regime", "gamma",
        "--order", "1", "--format", "json")
    _, second, _ = run_cli(
        capsys, "series", "--trace-powers", "2", "--regime", "gamma",
        "--order", "1", "--format", "json")
    assert first == second


def test_series_json_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, "series", "--wigner-moment", "1", "--regime", "inv-gamma",
        "--order", "5", "--format", "json")
    document = json.loads(out)
    assert render_json(document) == out
    assert document["schema_version"] == 1
    assert document["request"]["regime"] == "inv-gamma"
    assert document["guarantee_order"] == 5
    powers = [t["power"] for t in document["terms"]]
    assert powers == sorted(powers)
    for term in document["terms"]:
        for text in term["coeff"]["num"] + term["coeff"]["den"]:
            int(text)  # exact integer strings


def test_series_latex(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--wigner-moment", "1", "--regime", "inv-m",
        "--order", "2", "--format", "latex")
    assert code == 0
    assert out == (r"\frac{1}{1+\gamma} - \frac{\gamma}{(1+\gamma)^{5}}\,"
                   r"\frac{1}{M^{2}} + O(M^{-3})" + "\n")
    for argv, want in SERIES_LATEX.items():
        code, out, _ = run_cli(capsys, "series", *argv.split(), "--format", "latex")
        assert (code, out) == (0, want + "\n")


def test_series_schur_identity_moment(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--schur", "1", "--regime", "gamma", "--order", "0")
    assert code == 0
    assert "g^0: M" in out


def test_series_rejects_bad_partition(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--schur", "1,2", "--regime", "gamma", "--order", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("--wigner-moment", "0"), ("--cumulant", "0"), ("--cumulant", "-1"),
    ("--schur", "0"), ("--trace-powers", "0"),
], ids=" ".join)
def test_series_rejects_an_empty_selector(capsys, argv):
    # An index of 0 is a given flag, so it is refused, not taken as absent.
    code, out, err = run_cli(capsys, "series", *argv, "--regime", "gamma",
                             "--order", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# Every STATISTICS row with a sample argument (a partition given as a list)
# and the title it renders with.
TITLES = {
    "schur_q": ({"partition": [2, 1]}, "Schur moment, shape 2,1"),
    "power_sum": ({"partition": [2, 1]}, "trace-power moment, exponents 2,1"),
    "wigner_moment": ({"n": 2}, "Wigner time delay moment, n=2"),
    "cumulant": ({"n": 2}, "Wigner time delay cumulant, n=2"),
    "variance": ({}, "Wigner time delay variance"),
}


@pytest.mark.parametrize("kind", STATISTICS)
def test_every_statistic_renders(kind):
    argument, title = TITLES[kind]
    sreq = StatisticRequest(kind, RegimeRequest(VAR_GAMMA, 1), **argument)
    series = compute_statistic(sreq)
    assert render_text(sreq, series).startswith(f"statistic: {title}\n")
    assert render_latex(sreq, series).endswith(r" + O(\gamma^{2})" + "\n")
    request = document_for_series(sreq, series)["request"]
    assert request["kind"] == STATISTICS[kind].selector
    assert request["partition"] == ("2,1" if "partition" in argument else None)
    assert request["n"] == argument.get("n")


def test_series_rejects_unknown_regime(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--schur", "1", "--regime", "bogus", "--order", "0"])
    assert exc.value.code == 2


def test_series_order_cap(capsys):
    code, out, err = run_cli(
        capsys, "series", "--schur", "1", "--regime", "gamma", "--order", "65")
    assert code == 2 and out == ""
    assert err == "error: order 65 exceeds the cap 64\n"


@pytest.mark.parametrize("command,flag", [
    (["series", "--schur", "1", "--regime", "gamma", "--order", "0"], "--config"),
    (["verify", "--scope", "intro"], "--config"),
    (["eval", "--variance", "--m-value", "20", "--gamma-value", "1",
      "--order-gamma", "0"], "--config"),
    (["conjecture", "--n-max", "2"], "--config"),
    (["conjecture", "--n-max", "2"], "--order"),
    (["verify", "--scope", "intro"], "--n-max"),
    (["series", "--variance", "--regime", "gamma", "--order", "0"], "--out"),
], ids=["series", "verify", "eval", "conjecture",
        "conjecture-order", "verify-n-max", "series-out"])
def test_config_flag_is_refused(capsys, command, flag):
    # --config and the flags removed after it are unknown to every parser.
    with pytest.raises(SystemExit) as exc:
        main([*command, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("series", "--wigner-moment", "99999999999999999999", "--regime", "gamma",
      "--order", "0"), "index 99999999999999999999"),
    (("series", "--trace-powers", "99999999999999999999", "--regime", "inv-m",
      "--order", "0"), "partition weight 99999999999999999999"),
    (("series", "--schur", "65", "--regime", "inv-gamma", "--order", "0"),
     "partition weight 65"),
], ids=["index", "trace-powers-weight", "schur-weight"])
def test_size_above_the_cap_is_refused(argv, message):
    code, out, err = run_cold(*argv)
    assert code == 2 and out == ""
    assert err == f"error: {message} exceeds the cap 64\n"


def test_conjecture_n_max_at_the_cap_is_accepted(monkeypatch, capsys):
    monkeypatch.setattr("delaymoments.cli.validate_conjectures", lambda max_n: [])
    code, out, err = run_cli(capsys, "conjecture", "--n-max", "64")
    assert code == 0 and err == ""
    assert json.loads(out)["max_n"] == 64


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ("series", "--schur", "1", "--regime", "inv-m", "--order", "0"),
    ("verify", "--scope", "intro"),
    ("eval", "--variance", "--m-value", "20", "--gamma-value", "1",
     "--order-gamma", "0"),
    ("conjecture", "--n-max", "2"),
], ids=lambda argv: argv[0])
def test_closed_stdout_is_a_usage_error(argv, unbuffered):
    # The reader of stdout has gone before the first write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = run_python("-m", "delaymoments.cli", *argv, stdout=write_end,
                                  PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert code == 2
    assert "error: standard output was closed\n" in err
    assert "Traceback" not in err and "Exception ignored" not in err


# The `delaymoments` command ends its process with os._exit, which flushes
# nothing: these run it cold with stdout block-buffered (PYTHONUNBUFFERED
# unset), as in a pipe.
def run_entry(*argv, setup=""):
    """Run `setup`, then `cli.run()` on `argv`, in a fresh interpreter
    without `site` (-S), so that no `.pth` file imports or registers
    anything first."""
    return run_python("-S", "-c", f"{setup}\nfrom delaymoments import cli\ncli.run()\n",
                      *argv, PYTHONUNBUFFERED=None)


def test_cold_stdout_is_complete(capsys):
    # Above the 8 KiB block buffer, so part of it is still buffered at the end.
    argv = ("verify", "--scope", "all", "--json")
    code, out, err = run_python("-m", "delaymoments.cli", *argv, PYTHONUNBUFFERED=None)
    assert (code, err) == (0, "")
    assert len(out.encode()) > 8192
    assert run_cli(capsys, *argv)[:2] == (0, out)


def test_cold_exit_runs_atexit_callbacks_and_flushes_their_output():
    code, out, err = run_entry(
        "series", "--schur", "2", "--regime", "inv-m", "--order", "2",
        setup="import atexit\natexit.register(print, 'atexit callback ran')")
    assert code == 0 and err.startswith("# computed in "), err
    assert out == SERIES_TEXT["--schur 2 --regime inv-m --order 2"] + "atexit callback ran\n"


_PLANT_HARD_FAILURE = (
    "from delaymoments import reference\n"
    "from delaymoments.algebra import VAR_GAMMA, Polynomial, RationalFunction\n"
    "check = reference._expansion_check(\n"
    "    'intro.probe', 'probe coefficient',\n"
    "    lambda: RationalFunction(Polynomial('g', (0, 0, 1))),\n"
    "    ((VAR_GAMMA, {1: 5, 2: 1}, 2),))\n"
    "reference.all_checks = lambda *args, **kwargs: [check]\n")


# Exit 0 and 2 come from argparse's SystemExit here, 1 from main's return.
@pytest.mark.parametrize("argv, setup, want_code, want_out, want_err", [
    (("series", "--help"), "", 0, "usage: delaymoments series ", ""),
    (("verify", "--scope", "intro"), _PLANT_HARD_FAILURE, 1,
     "FAIL [HARD] intro.probe: probe coefficient  (", ""),
    (("series", "--schur", "1", "--regime", "bogus", "--order", "0"), "", 2,
     "", "usage: delaymoments series "),
], ids=["help", "hard-failure", "bad-choice"])
def test_cold_exit_codes(argv, setup, want_code, want_out, want_err):
    code, out, err = run_entry(*argv, setup=setup)
    assert code == want_code, err
    assert out.startswith(want_out) if want_out else out == ""
    assert err.startswith(want_err) and "Traceback" not in err


def test_text_series_does_not_import_json():
    # json serves only --format json and verify --json.
    code, out, err = run_entry(
        "series", "--schur", "1", "--regime", "inv-m", "--order", "0",
        setup="import atexit, sys\natexit.register(lambda: print('json' in sys.modules))")
    assert code == 0, err
    assert out.startswith("statistic: Schur moment, shape 1\n")
    assert out.endswith("\nFalse\n")


def test_eval_cross_regime(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--wigner-moment", "1", "--m-value", "20",
        "--gamma-value", "2", "--order-inv-m", "4", "--order-inv-gamma", "8")
    assert code == 0
    assert "inv-m" in out and "inv-gamma" in out
    assert "|inv-m - inv-gamma|" in out


def test_eval_pole_names_factor(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--variance", "--m-value", "2", "--gamma-value", "1",
        "--order-gamma", "1")
    assert code == 2
    assert "M^2-4" in err


def test_eval_zero_channel_number_is_usage_error():
    # A negative M is refused too; positive non-integer M is evaluated.
    for m_value in ("0", "-20"):
        code, out, err = run_cold("eval", "--variance", "--m-value", m_value,
                                  "--gamma-value", "1/2", "--order-inv-m", "2")
        assert code == 2 and out == "", m_value
        assert "error: the channel number M must be positive" in err
        assert "Traceback" not in err


def test_eval_order_cap(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--variance", "--m-value", "20", "--gamma-value", "1/10",
        "--order-inv-m", "6", "--order-gamma", "65")
    assert code == 2 and out == ""
    assert err == "error: order 65 exceeds the cap 64\n"


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 1: the inv-m omitted-term estimate "
                          "evaluates the g-dependent coefficient at M")
def test_eval_first_omitted_term_inv_m(capsys):
    # The first omitted term is -g/(1+g)^5 / M^2, 2/243/400 at M=20, g=2.
    code, out, _ = run_cli(
        capsys, "eval", "--wigner-moment", "1", "--m-value", "20",
        "--gamma-value", "2", "--order-inv-m", "0")
    assert code == 0
    assert "first omitted term ~ 2.057613e-05" in out


@pytest.mark.parametrize("argv", [
    ("--wigner-moment", "1", "--m-value", "20", "--gamma-value", "1e-40",
     "--order-inv-gamma", "10"),
    ("--variance", "--m-value", "1e-60", "--gamma-value", "1/10", "--order-inv-m", "6"),
])
def test_eval_beyond_float_range(argv):
    code, out, err = run_cold("eval", *argv)
    assert code == 0 and "Traceback" not in err
    value = out.splitlines()[1].split(":", 1)[1].split()[0]
    mantissa, _, exponent = value.partition("e+")
    assert len(mantissa.lstrip("-")) == 14 and int(exponent) > 308


def test_eval_first_omitted_term_beyond_float_range():
    # The estimate, about g/M^4 = 10^600 at M = g = 10^-200, overflows a
    # float, so it takes the exact decimal path, which must run on the
    # oldest supported Python too.  M equals g, so the estimate does not
    # depend on which of the two the inv-m coefficient is evaluated at.
    tiny = "1/1" + "0" * 200
    code, out, err = run_cold("eval", "--wigner-moment", "1", "--m-value", tiny,
                              "--gamma-value", tiny, "--order-inv-m", "2")
    assert code == 0 and "Traceback" not in err
    assert "first omitted term ~ 1.000000e+600)" in out


def test_eval_requires_an_order(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--variance", "--m-value", "20", "--gamma-value", "1")
    assert code == 2


def test_verify_intro(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "intro")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    hard = [l for l in lines if "[HARD]" in l]
    assert len(hard) == 9
    assert all(l.startswith("PASS") for l in hard)
    assert any(l.startswith("FAIL [SOFT]") for l in lines)


def test_verify_strict_flags_soft_findings(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "intro", "--strict")
    assert code == 1


def test_verify_section5(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "section5")
    assert code == 0
    assert "section5.trace2.inv_gamma" in out
    assert "section5.tracesq.inv_gamma" in out


def test_verify_json_block(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "section5", "--json")
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["scope"] == "section5"
    assert all(r["passed"] for r in payload["results"])


@pytest.mark.parametrize("coeff,window", [
    # A pole at g = 0: the expansion opens at g^-1.
    (RationalFunction(Polynomial("g", (2, 0, 1)), Polynomial("g", (0, 1))),
     (VAR_GAMMA, {0: 2, 1: -12}, 1)),
    # Growth at infinity: the expansion in 1/g opens at (1/g)^-2.
    (RationalFunction(Polynomial("g", (0, 0, 1))), (VAR_INV_GAMMA, {4: 1}, 4)),
    # The expansion matches from its leading power g^2 on, but a power
    # expected below it is missing.
    (RationalFunction(Polynomial("g", (0, 0, 1))), (VAR_GAMMA, {1: 5, 2: 1}, 2)),
], ids=["pole-at-zero", "growth-at-infinity", "expected-below-leading"])
def test_verify_failed_expansion_is_a_hard_failure(monkeypatch, capsys, coeff, window):
    check = reference._expansion_check("intro.probe", "probe coefficient",
                                       lambda: coeff, (window,))
    monkeypatch.setattr(reference, "all_checks", lambda *args, **kwargs: [check])
    code, out, err = run_cli(capsys, "verify", "--scope", "intro")
    assert code == 1 and err == ""
    assert out.startswith("FAIL [HARD] intro.probe: probe coefficient  (")


def test_series_run_does_not_import_the_reference_registry():
    # Only `verify` needs the registry; every other command skips its import.
    code, out, err = run_python("-c", (
        "import sys\n"
        "import delaymoments.cli as cli\n"
        "cli.main(['series', '--schur', '1', '--regime', 'inv-m', '--order', '0'])\n"
        "sys.exit('delaymoments.reference' in sys.modules)\n"))
    assert code == 0, err
    assert out.startswith("statistic: Schur moment, shape 1\n")


def test_cold_import_skips_the_code_generating_modules():
    # Every request is a cold process, so start-up is paid per request.
    # Without `site` (-S), no `.pth` file can import these first and mask a
    # regression in the package's own imports.
    code, out, err = run_python("-S", "-c", (
        "import sys\n"
        "import delaymoments.cli, delaymoments.reference\n"
        "print(sorted(set(sys.modules) & {'dataclasses', 'inspect', 'ast',\n"
        "                                 'dis', 'tokenize', 'typing'}))\n"))
    assert code == 0, err
    assert out == "[]\n"


# Defined in their modules, where the benchmark's layer tracer wraps them,
# but not part of the package root.
_MODULE_ONLY = {
    "algebra": ("laurent_expand_inverse_power", "polynomial_gcd"),
    "engine": ("falling_factorial", "absorption_weight", "durfee_filtered_lr_sum"),
    "partitions": ("lr_coefficient", "character"),
}


def test_package_root_exports_only_its_documented_api():
    module_only = {name for names in _MODULE_ONLY.values() for name in names}
    assert not (module_only | {"ExactDivisionError"}) & set(delaymoments.__all__)
    namespace = {}
    exec("from delaymoments import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(delaymoments.__all__)
    for module, names in _MODULE_ONLY.items():
        module = getattr(delaymoments, module)
        assert all(callable(getattr(module, name)) for name in names)
    # The README's Library API section names every root export.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    api = readme[readme.index("## Library API"):]
    assert [n for n in delaymoments.__all__ if f"`{n}`" not in api] == []


def test_every_check_is_scoped_by_its_key_prefix():
    checks = reference.all_checks("all")
    assert {c.scope for c in checks} == set(SCOPES)
    for check in checks:
        assert check.scope == check.key.split(".", 1)[0], check.key


def test_conjecture_command(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n-max", "2")
    assert code == 0
    assert "PASS a.n=1" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["all_passed"] is True


@pytest.mark.parametrize("n_max", ["1", "0"])
def test_conjecture_refuses_n_max_below_two(capsys, n_max):
    code, out, err = run_cli(capsys, "conjecture", "--n-max", n_max)
    assert code == 2 and out == ""
    assert err == "error: max_n must be at least 2\n"
