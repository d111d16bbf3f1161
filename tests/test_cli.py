"""CLI surface tests, driven in-process through main()."""

import argparse
import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from zetalab import cli, integrals, liouville
from zetalab.cli import _float_list, _num_int, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_basel(capsys):
    code, out, err = run(capsys, "zeta", "--s", "2")
    assert code == 0 and err == ""
    assert "zeta(2.000000) = 1.644934066848" in out
    assert "est abs err" in out


def test_zeta_complex_and_cutoff(capsys):
    code, out, _ = run(capsys, "zeta", "--s", "0.5,14", "--N", "200", "--bern", "10")
    assert code == 0
    assert "i (" in out  # complex formatting with imaginary part


def test_zeta_pole_is_an_error(capsys):
    code, out, err = run(capsys, "zeta", "--s", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["zeta", "--s", "2", "--nope"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_bad_complex_arg_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["zeta", "--s", "two"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv, shown", [
    (["zeta", "--s", "-0.5,1"], "zeta(-0.500000+1.000000i)"),
    (["integrate", "--kind", "F_one", "--s", "-0.5,1", "--X", "100"], "value = "),
    (["verify", "--all", "--X", "100", "--s", "-0.5,1"], "s=-0.5000+1.0000i"),
    (["sigma-c", "--kind", "One", "--kernel", "plain", "--grid", "-0.5:0.5:0.5",
      "--schedule", "10,100,1000"], "sigma=-0.5:"),
], ids=["zeta", "integrate", "verify", "sigma-c"])
def test_signed_value_as_its_own_token(argv, shown, capsys):
    """A value that starts with "-" but is not a plain negative number
    parses as the flag's value, as it does in the --flag=VALUE form."""
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and shown in out
    i = next(i for i, tok in enumerate(argv) if tok in ("--s", "--grid"))
    joined = [*argv[:i], f"{argv[i]}={argv[i + 1]}", *argv[i + 2:]]
    assert run(capsys, *joined) == (code, out, err)


def test_signed_value_never_swallows_a_flag():
    with pytest.raises(SystemExit) as e:
        main(["zeta", "--s", "--quiet"])
    assert e.value.code == 2


def test_non_finite_integer_arg_exits_2():
    for text in ("1e400", "inf", "nan"):
        with pytest.raises(SystemExit) as e:
            main(["scan", "--limit", text])
        assert e.value.code == 2



@pytest.mark.parametrize("text, points", [
    ("0:1:0.6", [0.0, 0.6]),
    ("0.4:0.6:0.05", [0.4, 0.45, 0.5, 0.55, 0.6]),
    ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
    ("1:1:0.3", [1.0]),
])
def test_grid_range_stops_at_stop(text, points):
    """The last point of START:STOP:STEP never passes STOP, and a STOP
    that rounding puts a hair short of a step still counts."""
    assert _float_list(text) == points


def test_grid_range_point_count_is_bounded(capsys):
    """A START:STOP:STEP grid of more than 10^6 points is refused by its
    count, before its list is built."""
    assert len(_float_list("1:1000000:1")) == 10**6
    with pytest.raises(argparse.ArgumentTypeError, match="1000001 points"):
        _float_list("0:1000000:1")
    with pytest.raises(argparse.ArgumentTypeError, match="1000000001001 points"):
        _float_list("0:1:1e-12")
    with pytest.raises(SystemExit) as e:
        main(["sigma-c", "--kind", "F_one", "--grid", "0:1:1e-12", "--schedule", "1e3,1e4"])
    assert e.value.code == 2
    assert "more than 1000000" in capsys.readouterr().err


def test_scan_limit_below_two_is_an_error(capsys):
    code, out, err = run(capsys, "scan", "--limit", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "P is scanned from x = 2" in err


def test_integer_flags_read_integer_literals_exactly(capsys):
    assert _num_int("9007199254740993") == 2**53 + 1
    assert _num_int("1e6") == 10**6
    for text in ("1.5", "1e400", "inf", "nan"):
        with pytest.raises(argparse.ArgumentTypeError):
            _num_int(text)
    code, out, _ = run(capsys, "xi", "--n", "12345678901234567")
    assert code == 0 and out.startswith("xi(12345678901234567) = ")

@pytest.mark.parametrize("argv", [
    ["zeta", "--s", "nan"],
    ["zeta", "--s", "2,inf"],
    ["integrate", "--kind", "F_half", "--s", "nan", "--X", "1000"],
    ["integrate", "--kind", "F_half", "--s", "2,inf", "--X", "1000"],
    ["verify", "--all", "--X", "1e4", "--s", "nan"],
    ["verify", "--all", "--X", "1e4", "--s", "1e400"],
    ["sigma-c", "--kind", "F_one", "--grid", "0.4,nan,0.6", "--schedule", "1e3,1e4,1e5"],
    ["sigma-c", "--kind", "F_one", "--grid", "0.4:inf:0.1", "--schedule", "1e3,1e4,1e5"],
    ["sums", "--x", "100", "--alpha", "nan"],
    ["sums", "--x", "100", "--alpha", "inf"],
    ["integrate", "--kind", "F_one", "--s", "2", "--X", "1000", "--tolerance", "nan"],
    ["integrate", "--kind", "F_one", "--s", "2", "--X", "1000", "--tolerance", "inf"],
], ids=" ".join)
def test_non_finite_s_or_sigma_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "not a finite number" in err and "Traceback" not in err


def test_non_finite_s_preset_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s = nan\n")
    code, out, err = run(capsys, "verify", "--all", "--X", "1e4", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == "error: config s = 'nan' is not a valid value\n"


def test_flags_a_subcommand_does_not_read_exit_2():
    for argv in (
        ["sigma-c", "--kind", "F_one", "--grid", "0.4,0.6", "--schedule", "10,100,1000",
         "--tolerance", "1e-4"],
        ["zeta", "--s", "2", "--threads", "2"],
        ["scan", "--limit", "100", "--threads", "2"],
        ["verify", "--all", "--threads", "2"],
        ["xi", "--n", "2", "--segment-size", "64"],
        ["scan", "--limit", "100", "--segment-size", "64"],
        ["verify", "--all", "--segment-size", "64"],
        ["scan", "--limit", "100", "--checkpoint-every", "4"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv


def test_sieve_stdout(capsys):
    code, out, _ = run(capsys, "sieve", "--hi", "6")
    assert code == 0
    assert out.splitlines() == ["1 +1", "2 -1", "3 -1", "4 +1", "5 -1", "6 +1"]


def test_sieve_csv(tmp_path, capsys):
    out_path = tmp_path / "lam.csv"
    code, out, _ = run(capsys, "sieve", "--lo", "10", "--hi", "20", "--out", str(out_path))
    assert code == 0 and "wrote 11 rows" in out
    rows = list(csv.DictReader(out_path.open()))
    assert rows[0] == {"n": "10", "lambda": "1"}
    assert rows[-1] == {"n": "20", "lambda": "-1"}


def test_scan_turan_only(capsys):
    code, out, _ = run(capsys, "scan", "--limit", "1000", "--turan")
    assert code == 0
    assert "turan:" in out and "polya:" not in out
    assert "first_violation=none" in out


def test_scan_damaged_checkpoint_is_an_error(tmp_path, capsys):
    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_text("zetalab-scan-checkpoint v2\nlimit=1000\n")
    code, out, err = run(capsys, "scan", "--limit", "1000", "--checkpoint", str(ckpt))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "segment_size" in err


def test_scan_checkpoint_with_a_foreign_next_n_is_an_error(tmp_path, capsys, segment_length):
    ckpt = tmp_path / "scan.ckpt"
    segment_length(512)
    assert run(capsys, "scan", "--limit", "5000", "--checkpoint", str(ckpt))[0] == 0
    ckpt.write_text(ckpt.read_text().replace("next_n=5001", "next_n=99999"))
    code, out, err = run(capsys, "scan", "--limit", "5000", "--checkpoint", str(ckpt))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "next_n=99999" in err


def test_scan_default_reports_both(capsys):
    code, out, _ = run(capsys, "scan", "--limit", "100")
    assert code == 0
    assert "polya:" in out and "turan:" in out


def test_sums_alpha(capsys):
    code, out, _ = run(capsys, "sums", "--x", "100", "--alpha", "1")
    assert code == 0
    assert out.startswith("F_100(1)")


def test_sums_default_block(capsys):
    code, out, _ = run(capsys, "sums", "--x", "1000")
    assert code == 0
    assert "F_1000(1/2)" in out and "L_1000" in out
    resid = float(out.rsplit("=", 1)[1])
    assert resid < 1e-10


def test_sums_past_double_precision_is_an_error(capsys):
    """F_10(-400) overflows every float: the direct route's inf - inf is
    refused, not printed as nan, and numpy warns nothing on the way."""
    code, out, err = run(capsys, "sums", "--x", "10", "--alpha", "-400")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    code, out, err = run(capsys, "sums", "--x", "1e5", "--alpha", "-60")
    assert code == 0 and err == ""
    assert out == "F_100000(-60) = 4.61091829011429e+301\n"


def test_integral_past_double_precision_is_an_error(capsys):
    code, out, err = run(capsys, "integrate", "--kind", "F_half", "--s", "-400", "--X", "10")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_xi_point_and_monotone(capsys):
    code, out, _ = run(capsys, "xi", "--n", "2", "--check-monotone", "1000")
    assert code == 0
    assert "xi(2) = 0.742786930218715" in out
    assert "monotone up to 1000: True" in out


def test_xi_table(tmp_path, capsys):
    out_path = tmp_path / "xi.csv"
    code, out, _ = run(capsys, "xi", "--table", "10000", "--points", "50", "--out", str(out_path))
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert rows[0]["n"] == "2" and rows[-1]["n"] == "10000"
    assert all(float(r["residual"]) < 1e-12 for r in rows)


def test_xi_table_without_out_is_refused_before_any_work(capsys, monkeypatch):
    """--table without --out fails before the monotone scan runs or prints."""
    def refuse(n_max):
        raise AssertionError("check_monotone_limit called")

    monkeypatch.setattr(cli, "check_monotone_limit", refuse)
    code, out, err = run(capsys, "xi", "--check-monotone", "3e7", "--table", "100")
    assert code == 1 and out == ""
    assert err == "error: --table needs --out for the CSV destination\n"


@pytest.mark.parametrize("points", ["-1", "0"])
def test_xi_table_needs_a_point(tmp_path, capsys, points):
    out_path = tmp_path / "xi.csv"
    code, out, err = run(capsys, "xi", "--table", "100", "--points", points, "--out", str(out_path))
    assert code == 1 and out == ""
    assert err == "error: points must be >= 1\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv, allocator, message", [
    (("xi", "--table", "100", "--points", "1e9", "--out", "{out}"), "logspace", "points"),
    (("zeta", "--s", "2", "--N", "1e12"), "arange", "cutoff"),
], ids=["xi-points", "zeta-N"])
def test_counts_above_a_million_are_refused_before_allocating(
        argv, allocator, message, tmp_path, capsys, monkeypatch):
    """--points and --N size an array; above 10^6 they are refused, as a
    sigma-c grid is, before numpy is asked for it."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"np.{allocator} called")

    monkeypatch.setattr(np, allocator, refuse)
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, *(tok.format(out=out_path) for tok in argv))
    assert code == 1 and out == ""
    assert err == f"error: {message} must be at most 1000000\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ("xi", "--table", "1000", "--points", "{n}", "--out", "{out}"),
    ("zeta", "--s", "2", "--bern", "{n}"),
], ids=["points", "bern"])
def test_integer_flags_read_the_exponent_form(argv, tmp_path, capsys):
    """As --limit and --X do, these flags read 1e1 as 10."""
    results = []
    for n in ("10", "1e1"):
        out = tmp_path / n / "file"
        out.parent.mkdir()
        code, stdout, err = run(capsys, *(tok.format(n=n, out=out) for tok in argv))
        assert code == 0 and err == "", err
        results.append((stdout.replace(str(out), "FILE"), out.exists() and out.read_bytes()))
    assert results[0] == results[1]


def test_cli_import_leaves_scipy_unloaded():
    """numpy is the only runtime dependency: a fresh interpreter loads no
    scipy. Nor does it load fractions or decimal, which the scan's exact
    T does without."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, zetalab.cli; "
         "print(*(m in sys.modules for m in ('scipy', 'fractions', 'decimal')))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False False\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--all", "--X", "1e5", "--out", "{tmp}/report.json"],  # its pass splits in two
    ["scan", "--limit", "3e6"],  # its stream sieves ahead in a child
    ["sums", "--x", "3e6", "--out", "{tmp}/sums.csv"],  # a fold child and a sieve child at once
])
def test_forked_runs_leave_no_file_unclosed(argv, tmp_path):
    """Under -X dev, with ResourceWarning an error, a run that forks a
    fold child, one that forks a sieve child and one that forks both exit
    0 with nothing on stderr: no pipe file object is left to the garbage
    collector. The BLAS runs one thread, so that the Abel passes split."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "zetalab",
         *(arg.replace("{tmp}", str(tmp_path)) for arg in argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_xi_table_without_out_errors(capsys):
    code, _, err = run(capsys, "xi", "--table", "100")
    assert code == 1 and "error:" in err


def test_xi_noop_errors(capsys):
    code, _, err = run(capsys, "xi")
    assert code == 1 and "nothing to do" in err


def test_integrate_reports_tail_model(capsys):
    code, out, _ = run(capsys, "integrate", "--kind", "F_half", "--s", "2",
                       "--X", "10000", "--tolerance", "1e-4")
    assert code == 0
    assert "sqrt(u)" in out
    assert "converged at tolerance 0.0001: True" in out


def test_integrate_conditional_region(capsys):
    code, out, _ = run(capsys, "integrate", "--kind", "F_half", "--s", "0.8", "--X", "1000")
    assert code == 0
    assert "unmodeled; conditional" in out
    assert "converged at tolerance 1e-06: False" in out


def test_verify_requires_selection(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 1 and "pass --all" in err


def test_verify_all_small(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--all", "--X", "2000", "--out", str(out_path))
    assert code == 0  # empirical cases do not gate
    assert "[PASS] finite_linearity" in out
    assert "[FAIL]" in out  # the conditional-strip cases, honestly red
    payload = json.loads(out_path.read_text())
    assert all("empirical" in rec["flags"] for rec in payload if not rec["pass"])


def test_verify_case_filter(capsys):
    code, out, _ = run(capsys, "verify", "--case", "pnt", "--X", "100")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 1 and "pnt_limit" in lines[0]


def test_verify_unknown_case(capsys):
    code, _, err = run(capsys, "verify", "--case", "nonesuch", "--X", "100")
    assert code == 1 and "no case name contains" in err


def test_verify_all_at_the_pole_reports_the_other_cases(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--X", "1e4", "--s", "2", "--s", "1")
    assert code == 0
    cases = {line.split(" X=")[0] for line in out.splitlines() if line.startswith("[")}
    assert cases == {
        "[PASS] pnt_limit",
        *(f"[PASS] {name} s=2.0000" for name in (
            "zeta_reciprocal_integral", "ratio_integral", "ratio_decomposition",
            "shifted_ratio_identity", "finite_linearity",
        )),
        "[PASS] finite_linearity s=1.0000",
    }


def test_verify_refuses_a_height_the_ratios_cannot_reach(capsys):
    """The ratios take zeta at 2s, so t = 60 is past their |t| <= 50."""
    code, out, err = run(capsys, "verify", "--all", "--X", "1e4", "--s", "1,60")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "|t| <= 50" in err and "2s" in err


def test_verify_refuses_an_unreachable_height_before_sieving(capsys, monkeypatch):
    """The refusal of t = 60 comes before the sieve-and-fold pass, not
    after the work of every other case."""
    def refuse(*args, **kwargs):
        raise AssertionError("the sieve ran")

    for module in (liouville, integrals):  # integrals imports it by name
        monkeypatch.setattr(module, "_factor_segment", refuse)
    code, out, err = run(capsys, "verify", "--all", "--X", "1e6", "--s", "2", "--s", "1,60")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "|t| <= 50" in err


def test_verify_custom_s_points(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--X", "500", "--s", "2", "--s", "3")
    assert code == 0
    assert "s=0.7500" not in out and "s=3.0000" in out


def test_config_presets_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("# preset for quick runs\nX = 500\n")
    out_a = tmp_path / "a.json"
    code, _, _ = run(capsys, "verify", "--all", "--config", str(cfg),
                     "--case", "finite", "--out", str(out_a))
    assert code == 0
    assert {rec["X"] for rec in json.loads(out_a.read_text())} == {500}

    out_b = tmp_path / "b.json"
    code, _, _ = run(capsys, "verify", "--all", "--config", str(cfg),
                     "--case", "finite", "--X", "700", "--out", str(out_b))
    assert code == 0
    assert {rec["X"] for rec in json.loads(out_b.read_text())} == {700}


def test_config_presets_a_subcommand_does_not_read_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("csv-stride = 4\ntolerance = 1e-4\n")
    code, out, _ = run(capsys, "zeta", "--s", "2", "--config", str(cfg))
    assert code == 0 and "zeta(2.000000)" in out
    code, out, _ = run(capsys, "integrate", "--kind", "F_one", "--s", "2", "--X", "1000",
                       "--config", str(cfg))
    assert code == 0 and "converged at tolerance 0.0001" in out


def test_config_key_no_subcommand_reads_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    for text, key in (("threads = 2\n", "threads"),
                      ("segment_size = 128\n", "segment_size"),
                      ("checkpoint_every = 4\n", "checkpoint_every"),
                      ("X = 500\nsegment_sise = 128\n", "segment_sise")):
        cfg.write_text(text)
        code, out, err = run(capsys, "verify", "--all", "--case", "finite", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == f"error: no subcommand reads config key {key}\n"


def test_config_presets_go_through_each_flags_parser(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    for preset, shown in (("2", " s=2.0000 "), ("1.5,2", " s=1.5000+2.0000i ")):
        cfg.write_text(f"X = 500\ns = {preset}\n")
        code, out, _ = run(capsys, "verify", "--all", "--config", str(cfg), "--case", "finite")
        assert code == 0 and out.count("[PASS]") == 1 and shown in out
    # an explicit repeatable flag replaces the preset list
    code, out, _ = run(capsys, "verify", "--all", "--config", str(cfg), "--case", "finite",
                       "--s", "3", "--s", "4")
    assert code == 0 and out.count("[PASS]") == 2 and "1.5000" not in out
    cfg.write_text("X = 500\nquiet = true\n")
    code, out, _ = run(capsys, "verify", "--all", "--config", str(cfg), "--case", "finite")
    assert code == 0 and out == ""
    cfg.write_text("X = lots\n")
    code, _, err = run(capsys, "verify", "--all", "--config", str(cfg))
    assert code == 1 and err.startswith("error: config X")


def test_config_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    code, _, err = run(capsys, "verify", "--all", "--config", str(cfg))
    assert code == 1 and "expected key=value" in err


def test_config_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--all", "--config", str(tmp_path / "absent.cfg"))
    assert code == 1 and err.startswith("error:")


_WRITERS = [
    ["scan", "--limit", "100", "--checkpoint", "{}"],
    ["scan", "--limit", "100", "--csv", "{}"],
    ["verify", "--all", "--X", "500", "--out", "{}"],
    ["sums", "--x", "100", "--out", "{}"],
    ["sieve", "--hi", "100", "--out", "{}"],
    ["xi", "--table", "100", "--points", "10", "--out", "{}"],
    ["sigma-c", "--kind", "F_one", "--grid", "0.8,1.2", "--schedule", "10,100,1000", "--trace", "{}"],
]


@pytest.mark.parametrize(
    "argv, is_dir", [(argv, False) for argv in _WRITERS] + [(argv, True) for argv in _WRITERS],
    ids=[argv[0] + argv[-2] for argv in _WRITERS]
    + [argv[0] + argv[-2] + "-existing_directory" for argv in _WRITERS],
)
def test_an_unwritable_output_path_is_an_error(argv, is_dir, tmp_path, capsys, monkeypatch):
    """An output path under a missing directory, or naming an existing
    directory, ends in one error: line and exit 1, whichever command
    writes it, and before the sieve runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("the sieve ran")

    for module in (liouville, integrals):  # integrals imports it by name
        monkeypatch.setattr(module, "_factor_segment", refuse)
    path = str(tmp_path if is_dir else tmp_path / "missing" / "out")
    code, _, err = run(capsys, *(path if tok == "{}" else tok for tok in argv))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_quiet_suppresses_stdout_not_files(tmp_path, capsys):
    out_path = tmp_path / "quiet.json"
    code, out, _ = run(capsys, "verify", "--all", "--X", "500", "--quiet",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())


def test_sigma_c_quick(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "sigma-c", "--kind", "One", "--kernel", "plain",
        "--grid", "0.8:1.2:0.2", "--schedule", "100,1000,10000",
        "--trace", str(trace),
    )
    assert code == 0
    assert "abscissa bracket: [" in out
    assert "sigma=1:" in out
    rows = list(csv.DictReader(trace.open()))
    assert len(rows) == 9  # 3 sigmas x 3 truncations
    assert set(rows[0]) == {"sigma", "X", "re", "im", "tail_estimate"}


def test_sigma_c_grid_validation(capsys):
    code, _, err = run(capsys, "sigma-c", "--kind", "One",
                       "--grid", "1.0", "--schedule", "100,1000,10000")
    assert code == 1 and "error:" in err
