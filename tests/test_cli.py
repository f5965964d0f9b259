import numpy as np
import pytest
from click.testing import CliRunner

from condreach.cli import main
from condreach.fixtures import fixture_path, fixture_text

INVENT = str(fixture_path("invent.ctmc"))
INVENT1 = str(fixture_path("invent1.evidence"))
WEIGHTS = "prop:'empty'@0.1"


@pytest.fixture()
def runner():
    return CliRunner()


def _points_evidence(tmp_path):
    path = tmp_path / "points.evidence"
    path.write_text(
        "evidence\n"
        "obs nonempty @ 0..0\n"
        "obs nonempty @ 1\n"
        "obs empty @ 2\n"
        "obs nonempty @ 3\n"
    )
    return str(path)


def test_analyze_smoke(runner, tmp_path):
    out = tmp_path / "trace.csv"
    res = runner.invoke(
        main,
        ["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
         "--max-iters", "3", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert res.output.startswith("lower=")
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("iter,elapsed_s,lower,upper")
    assert len(lines) == 4


def test_analyze_trace_to_stdout(runner):
    res = runner.invoke(
        main,
        ["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
         "--max-iters", "1"],
    )
    assert res.exit_code == 0
    assert "iter,elapsed_s" in res.output
    summary = res.output.strip().splitlines()[-1]
    assert summary.startswith("lower=0.0786201633")


def test_precise_and_likelihood(runner, tmp_path):
    ev = _points_evidence(tmp_path)
    res = runner.invoke(main, ["precise", INVENT, ev, "--weights", WEIGHTS])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(0.07862016331147531, abs=1e-11)
    res = runner.invoke(main, ["likelihood", INVENT, ev])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(0.11548486256744492, abs=1e-11)


def test_precise_rejects_windows(runner):
    res = runner.invoke(
        main, ["precise", INVENT, INVENT1, "--weights", WEIGHTS]
    )
    assert res.exit_code == 3
    assert "precisely timed" in res.output


def test_sample(runner, tmp_path):
    out = tmp_path / "env.csv"
    res = runner.invoke(
        main,
        ["sample", INVENT, INVENT1, "--weights", WEIGHTS, "-n", "20",
         "--seed", "1", "--out", str(out)],
    )
    assert res.exit_code == 0
    assert "min=" in res.output and "max=" in res.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample_idx,t_1,t_2,t_3,t_4,value"
    assert len(lines) == 21


def test_weights_from_file(runner, tmp_path):
    wf = tmp_path / "w.txt"
    wf.write_text("s0 1.0\ns1 0.5\ns2 0.25  # comment\n")
    res = runner.invoke(
        main,
        ["analyze", INVENT, INVENT1, "--weights", f"file:{wf}",
         "--max-iters", "1"],
    )
    assert res.exit_code == 0


def test_exit_code_parse_error(runner, tmp_path):
    bad = tmp_path / "bad.ctmc"
    bad.write_text("not a model\n")
    res = runner.invoke(
        main, ["analyze", str(bad), INVENT1, "--weights", WEIGHTS]
    )
    assert res.exit_code == 2

    bad_ev = tmp_path / "bad.evidence"
    bad_ev.write_text("evidence\nobs empty @ 2..1\n")
    res = runner.invoke(
        main, ["analyze", INVENT, str(bad_ev), "--weights", WEIGHTS]
    )
    assert res.exit_code == 2

    res = runner.invoke(
        main, ["analyze", str(tmp_path / "missing.ctmc"), INVENT1,
               "--weights", WEIGHTS]
    )
    assert res.exit_code == 2


def test_exit_code_obs_prefix(runner, tmp_path):
    # The line used to be read as `obs empty @ 1..2`.
    ev = tmp_path / "prefix.evidence"
    ev.write_text("evidence\nobsempty @ 1..2\n")
    res = runner.invoke(
        main, ["analyze", INVENT, str(ev), "--weights", WEIGHTS]
    )
    assert res.exit_code == 2
    assert "expected an obs line" in res.output


def test_exit_code_semantic_error(runner, tmp_path):
    ev = tmp_path / "unknown.evidence"
    ev.write_text("evidence\nobs green @ 1..2\n")
    res = runner.invoke(
        main, ["analyze", INVENT, str(ev), "--weights", WEIGHTS]
    )
    assert res.exit_code == 3

    res = runner.invoke(
        main, ["analyze", INVENT, INVENT1, "--weights", "prop:'green'@0.1"]
    )
    assert res.exit_code == 3

    res = runner.invoke(
        main, ["analyze", INVENT, INVENT1, "--weights", "nope"]
    )
    assert res.exit_code == 3

    ordered = tmp_path / "order.evidence"
    ordered.write_text("evidence\nobs empty @ 1..3\nobs empty @ 2..4\n")
    res = runner.invoke(
        main, ["analyze", INVENT, str(ordered), "--weights", WEIGHTS]
    )
    assert res.exit_code == 3


def test_exit_code_numeric_error(runner, tmp_path):
    # Zero-likelihood evidence: initial state is nonempty but the point
    # observation at time 0 demands empty.
    ev = tmp_path / "impossible.evidence"
    ev.write_text("evidence\nobs empty @ 0..0\n")
    res = runner.invoke(
        main, ["analyze", INVENT, str(ev), "--weights", WEIGHTS]
    )
    assert res.exit_code == 4


def test_precise_zero_likelihood_exits_numeric(runner, tmp_path):
    ev = tmp_path / "impossible.evidence"
    ev.write_text("evidence\nobs empty @ 0..0\n")
    res = runner.invoke(main, ["precise", INVENT, str(ev), "--weights", WEIGHTS])
    assert res.exit_code == 4
    assert "zero likelihood" in res.output
    # The likelihood itself is well defined: 0.
    res = runner.invoke(main, ["likelihood", INVENT, str(ev)])
    assert res.exit_code == 0
    assert float(res.output) == 0.0


def test_missing_weight_option(runner):
    res = runner.invoke(main, ["analyze", INVENT, INVENT1])
    assert res.exit_code == 2  # click usage error


def test_sample_zero_likelihood_exits_numeric(runner, tmp_path):
    ev = tmp_path / "impossible.evidence"
    ev.write_text("evidence\nobs empty @ 0..0\n")
    res = runner.invoke(
        main, ["sample", INVENT, str(ev), "--weights", WEIGHTS, "-n", "3"]
    )
    assert res.exit_code == 4
    assert "zero likelihood" in res.output


_MODEL = fixture_text("invent.ctmc")


@pytest.mark.parametrize(
    "args, code",
    [
        (["analyze", "{nan_rate}", INVENT1, "--weights", WEIGHTS], 2),
        (["analyze", "{inf_rate}", INVENT1, "--weights", WEIGHTS], 2),
        (["analyze", INVENT, "{nan_window}", "--weights", WEIGHTS], 2),
        (["sample", INVENT, "{nan_window}", "--weights", WEIGHTS], 2),
        (["analyze", INVENT, "{inf_window}", "--weights", WEIGHTS], 2),
        (["analyze", INVENT, INVENT1, "--weights", "prop:'empty'@inf"], 3),
        (["analyze", INVENT, INVENT1, "--weights", "prop:'empty'@nan"], 3),
        (["analyze", INVENT, INVENT1, "--weights", "file:{nan_weights}"], 3),
        (["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
          "--time-limit", "nan"], 3),
        (["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
          "--time-limit", "inf"], 3),
        (["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
          "--vi-tol", "nan"], 3),
        (["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
          "--width-target", "nan"], 3),
        (["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
          "--transient-tol", "nan"], 3),
        (["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
          "--transient-tol", "inf"], 3),
        (["precise", INVENT, "{points}", "--weights", WEIGHTS,
          "--transient-tol", "nan"], 3),
        (["likelihood", INVENT, "{points}", "--transient-tol", "nan"], 3),
        (["sample", INVENT, INVENT1, "--weights", WEIGHTS,
          "--transient-tol", "nan"], 3),
        # A chain too stiff to uniformize over the times asked: exit 4.
        (["precise", "{stiff}", "{stiff_points}", "--weights",
          "prop:'y'@0.1"], 4),
        (["precise", "{stiff}", "{stiff_points}", "--weights",
          "file:{stiff_weights}"], 4),
        (["likelihood", "{stiff}", "{stiff_points}"], 4),
        (["analyze", "{stiff}", "{stiff_points}", "--weights",
          "file:{stiff_weights}"], 4),
        (["analyze", "{stiff}", "{stiff_window}", "--weights",
          "file:{stiff_weights}"], 4),
        (["sample", "{stiff}", "{stiff_window}", "--weights",
          "file:{stiff_weights}", "-n", "2"], 4),
        # A file that is not UTF-8 is a parse error, whatever it holds.
        (["analyze", "{latin1_model}", INVENT1, "--weights", WEIGHTS], 2),
        (["analyze", INVENT, "{latin1_window}", "--weights", WEIGHTS], 2),
        (["analyze", INVENT, INVENT1, "--weights", "file:{latin1_weights}"],
         2),
        # Like a duplicate rate in a model file.
        (["analyze", INVENT, INVENT1, "--weights", "file:{twice_weights}"],
         2),
        (["sample", INVENT, INVENT1, "--weights", WEIGHTS, "--seed", "-1"],
         3),
        (["sample", INVENT, INVENT1, "--weights", WEIGHTS, "-n", "0"], 3),
        (["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
          "--max-iters", "0"], 3),
        (["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
          "--max-iters", "-3"], 3),
        # The exit code follows the error's type, not where it is caught:
        # a malformed weight formula is a parse error, as in evidence.
        (["analyze", INVENT, INVENT1, "--weights", "prop:'empty &'@0.1"], 2),
        (["analyze", INVENT, INVENT1, "--weights", "file:{unknown_state}"],
         3),
        (["analyze", INVENT, INVENT1, "--weights", WEIGHTS,
          "--max-iters", "1", "--out", "{missing_dir}/trace.csv"], 2),
        # A transient tolerance of 1 or more drops all the mass: it bounds
        # nothing.
        (["sample", INVENT, INVENT1, "--weights", WEIGHTS, "-n", "2",
          "--transient-tol", "5"], 3),
    ],
)
def test_non_finite_input_exit_codes(runner, tmp_path, args, code):
    # Every non-finite number is refused at the input boundary, and a
    # chain too stiff for uniformization before any work, each with a
    # documented exit code, never a traceback or a hang.
    files = {
        "nan_rate": _MODEL.replace("rate s0 s1 3", "rate s0 s1 nan"),
        "inf_rate": _MODEL.replace("rate s0 s1 3", "rate s0 s1 inf"),
        "nan_window": "evidence\nobs empty @ nan..nan\n",
        "inf_window": "evidence\nobs empty @ 1..inf\n",
        "nan_weights": "s0 1.0\ns1 nan\ns2 0.25\n",
        "stiff": (
            "ctmc\nstate a x\nstate b y\ninit a\n"
            "rate a b 1e9\nrate b a 1e9\n"
        ),
        "stiff_points": "evidence\nobs x @ 100..100\n",
        "stiff_window": "evidence\nobs x @ 99..100\n",
        "stiff_weights": "a 0.0\nb 1.0\n",
        "latin1_model": _MODEL.replace("empty", "empt\xff").encode("latin-1"),
        "latin1_window": "evidence\nobs \xe9 @ 1..2\n".encode("latin-1"),
        "latin1_weights": "s0 1.0\ns1 0.5\ns\xb2 0.25\n".encode("latin-1"),
        "twice_weights": "s0 1.0\ns1 0.5\ns2 0.25\ns1 0.75\n",
        "unknown_state": "s0 1.0\ns1 0.5\ns9 0.25\n",
    }
    paths = {
        "points": _points_evidence(tmp_path),
        "missing_dir": str(tmp_path / "missing"),
    }
    for name, text in files.items():
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        paths[name] = str(path)
    res = runner.invoke(main, [a.format(**paths) for a in args])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.output


def test_unlisted_error_is_a_traceback(runner, monkeypatch):
    # The exit-code table covers typed failures only; any other exception
    # is a bug and must surface as itself, not as a documented exit code.
    import condreach.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "analyze", broken)
    res = runner.invoke(
        main, ["analyze", INVENT, INVENT1, "--weights", WEIGHTS]
    )
    assert isinstance(res.exception, KeyError)
    assert res.exit_code == 1


@pytest.mark.parametrize("command", ["analyze", "sample"])
def test_unwritable_out_fails_before_the_work(runner, tmp_path, monkeypatch,
                                              command):
    # --out is opened before the refinement or the sampling starts, so a
    # path into a missing directory exits 2 without running either.
    import condreach.cli as cli
    import condreach.driver as driver

    def never(*args, **kwargs):
        raise AssertionError("the work ran before --out was opened")

    monkeypatch.setattr(driver, "analyze", never)
    monkeypatch.setattr(cli, "analyze", never)
    monkeypatch.setattr(cli, "sample_envelope", never)
    res = runner.invoke(
        main,
        [command, INVENT, INVENT1, "--weights", WEIGHTS,
         "--out", str(tmp_path / "nodir" / "x.csv")],
    )
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2
    assert "No such file or directory" in res.output


def test_empty_target_warns_on_one_stderr_line(runner, tmp_path):
    # The empty-target warning is one `warning:` line on stderr, not a
    # Python warning with a source line; stdout and the exit code are
    # those of a normal run.
    ev = _points_evidence(tmp_path)
    res = runner.invoke(
        main,
        ["precise", INVENT, ev, "--weights", "prop:'empty & !empty'@0.1"],
    )
    assert res.exit_code == 0
    assert res.stdout == "0\n"
    assert res.stderr.splitlines() == [
        "warning: empty target set, all weights are 0"
    ]
