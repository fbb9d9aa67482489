import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import verlinde
from verlinde.cli import main
from verlinde.fusion_ring import FusionElement, PrecisionExhausted
from verlinde.oracles import sweep_surfaces
from verlinde.prequant import SurfaceData, enumerate_choices


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_quantize_two_stars(capsys):
    code, out = run(capsys, "quantize", "--level", "4", "--labels", "2,2",
                    "--psi", "0,0", "--reduced")
    assert code == 0
    assert "coeffs [1, 0, 0, 0, 1]" in out
    assert "reduced 1" in out


def test_prequant_inadmissible_exit_code(capsys):
    code, out = run(capsys, "prequant", "--level", "6", "--labels", "3,3,3")
    assert code == 1
    assert "inadmissible" in out
    assert "condition (iii)" in out
    assert "4N" in out


def test_prequant_admissible_reports_choices(capsys):
    code, out = run(capsys, "prequant", "--level", "4", "--labels", "2,2,2")
    assert code == 0
    assert "4 pre-quantization choice(s)" in out


def test_prequant_counts_choices_without_listing_them(capsys):
    # |Hom(Gamma, +-1)| = |Gamma| = 2^22, past the enumeration cap
    code, out = run(capsys, "prequant", "--level", "4", "--genus", "11", "--format", "json")
    assert code == 0
    assert json.loads(out)["num_choices"] == 4194304
    for k, h, labels in ((4, 0, "2,2,2"), (8, 2, "4,4,1"), (6, 1, "3,3"), (5, 0, "1,2")):
        code, out = run(capsys, "prequant", "--level", str(k), "--genus", str(h),
                        "--labels", labels, "--format", "json")
        surface = SurfaceData(k, h, tuple(map(int, labels.split(","))))
        assert json.loads(out)["num_choices"] == len(enumerate_choices(surface))


def test_quantize_inadmissible_exit_code(capsys):
    code, out = run(capsys, "quantize", "--level", "3", "--genus", "1")
    assert code == 1
    assert "condition (ii)" in out


def test_quantize_both_paths(capsys):
    code, out = run(capsys, "quantize", "--level", "8", "--genus", "1",
                    "--labels", "4,4", "--path", "both", "--all-choices", "--reduced")
    assert code == 0
    # |Gamma| = 2^(2h + r - 1) = 8 choices, one line pair each
    assert out.count("path closed_form") == out.count("path fs_float") == 8


def test_quantize_json_round_trips(capsys):
    code, out = run(capsys, "quantize", "--level", "4", "--labels", "2,2",
                    "--psi", "0,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    elem = FusionElement.from_json_dict(data)
    assert elem == FusionElement(4, (0, 0, 1, 0, 0))
    assert data["reduced"] == 0
    assert data["choice"] == {"psi_bits": [0, 1]}


def test_psi_echoed_canonicalized(capsys):
    # non-canonical psi (1,1) equals (0,0) on Gamma and is echoed canonically
    code, out = run(capsys, "quantize", "--level", "4", "--labels", "2,2",
                    "--psi", "1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["choice"] == {"psi_bits": [0, 0]}


def test_fusion_mult(capsys):
    code, out = run(capsys, "fusion", "mult", "--level", "4",
                    "--a", "0,0,1,0,0", "--b", "0,0,1,0,0")
    assert code == 0
    assert "coeffs [1, 0, 1, 0, 1]" in out


def test_fusion_mult_csv(capsys):
    code, out = run(capsys, "fusion", "mult", "--level", "2",
                    "--a", "0,1,0", "--b", "0,1,0", "--format", "csv")
    assert code == 0
    assert "1:0:1" in out


def test_smatrix_json_is_square(capsys):
    code, out = run(capsys, "smatrix", "--level", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["matrix"]) == 4
    assert all(len(row) == 4 for row in data["matrix"])


def test_tables_text(capsys):
    code, out = run(capsys, "tables", "--r", "2", "--level", "8")
    assert code == 0
    assert "tau_0 + tau_4 + tau_8" in out


def test_tables_inadmissible_level(capsys):
    code, out = run(capsys, "tables", "--r", "3", "--level", "6")
    assert code == 1
    assert out == ("inadmissible: condition (iii) requires k in 4N "
                   "when the star count is >= 3\n")


@pytest.mark.parametrize("flag", ["--max-level", "--max-r", "--max-genus"])
def test_verify_rejects_an_empty_box(capsys, flag):
    code = main(["verify", flag, "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: verification bound ")
    assert "must be non-negative, got -1" in captured.err


def test_verify_small_box(capsys):
    code, out = run(capsys, "verify", "--max-level", "4", "--max-r", "2",
                    "--max-genus", "1")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_reports_each_checks_wall_time(capsys):
    box = ["verify", "--max-level", "4", "--max-r", "2", "--max-genus", "1"]
    code, out = run(capsys, *box)
    lines = out.splitlines()[:-1]
    assert code == 0 and len(lines) == 18
    assert all(re.search(r"  wall \d+\.\d{3} s  \{", line) for line in lines)
    code, out = run(capsys, *box, "--format", "json")
    checks = json.loads(out)["checks"]
    assert code == 0 and len(checks) == 18
    assert all(type(c["wall_s"]) is float and c["wall_s"] >= 0 for c in checks)
    assert sum(c["wall_s"] for c in checks) > 0
    code, out = run(capsys, *box, "--format", "csv")
    assert out.splitlines()[0] == "name,pass,deviation,tolerance,wall_s,params"


def test_deterministic_output(capsys):
    argv = ["quantize", "--level", "8", "--labels", "4,4,4,4", "--all-choices",
            "--path", "both", "--format", "json"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_label_out_of_range_is_reported(capsys):
    code = main(["quantize", "--level", "4", "--labels", "9"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["quantize", "--level", "4", "--labels", "2,2", "--path", "both", "--reduced"],
    ["verify", "--max-level", "4", "--max-r", "2", "--max-genus", "1"],
])
def test_tolerance_environment_is_ignored(capsys, monkeypatch, argv):
    # the integrality tolerance is a constant: no environment variable changes it
    outputs = set()
    for value in (None, "abc", "0.4"):
        if value is None:
            monkeypatch.delenv("VERLINDE_TOLERANCE", raising=False)
        else:
            monkeypatch.setenv("VERLINDE_TOLERANCE", value)
        code = main(argv)
        captured = capsys.readouterr()
        # a verify check's wall time differs from run to run; the rest may not
        outputs.add((code, re.sub(r"wall \d+\.\d+ s", "wall", captured.out), captured.err))
    assert len(outputs) == 1
    assert outputs.pop()[0] == 0


def test_quantize_beyond_gamma_enumeration_cap(capsys):
    code, out = run(capsys, "quantize", "--level", "2", "--genus", "11",
                    "--psi", ",".join("0" * 22), "--path", "both", "--reduced")
    assert code == 0
    assert "coeffs [0, 0, 1]  reduced 0" in out


def test_precision_exhausted_exit_code(capsys, monkeypatch):
    # The float fs path refused coefficients near 1e89 here with exit 3; fs
    # now answers it exactly.  Exit 3 stays mapped for the float API.
    argv = ["quantize", "--level", "60", "--genus", "30", "--format", "json"]
    assert main([*argv, "--path", "fs"]) == 0
    fs = json.loads(capsys.readouterr().out)
    assert main([*argv, "--path", "closed"]) == 0
    assert fs == {**json.loads(capsys.readouterr().out), "path": "fs_float"}
    from verlinde import cli

    def exhausted(*args, **kwargs):
        raise PrecisionExhausted("forced")

    monkeypatch.setattr(cli, "fs_formula", exhausted)
    code = main(["quantize", "--level", "60", "--genus", "30", "--path", "fs"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("precision exhausted:")


def test_verify_exits_3_when_a_check_exhausts_precision(capsys, monkeypatch):
    # verify reads the float API (FusionElement.evaluate in the
    # evaluation_homomorphism check): its PrecisionExhausted exits 3, with
    # the message on stderr and no partial report on stdout.
    def exhausted(self, l):
        raise PrecisionExhausted(f"forced at t_{l}")

    monkeypatch.setattr(FusionElement, "evaluate", exhausted)
    code = main(["verify", "--max-level", "4", "--max-r", "2", "--max-genus", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "precision exhausted: forced at t_0\n"


def _closed_answer(capsys, argv):
    """The coefficients and reduced value of ``argv`` on the closed path."""
    path = argv.index("--path")
    assert main(["quantize", *argv[:path], "--path", "closed", "--format", "json"]) == 0
    closed = json.loads(capsys.readouterr().out)
    return closed["coeffs"], closed["reduced"]


# The requests whose float sums left double range and exhausted double
# precision: an inf to round, |Gamma| = 2^2003 past float conversion, 4^h
# in the double factor, +inf and -inf in one reduced sum, and an infinite
# block sum beside a finite identity term.  fs and reduced now answer each
# exactly, as the closed form does.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["--level", "8", "--genus", "300", "--path", "closed", "--reduced"],
    ["--level", "8", "--genus", "300", "--path", "fs"],
    ["--level", "100", "--genus", "1000", "--labels", "50,50,50,50", "--path", "fs"],
    ["--level", "100", "--genus", "1000", "--labels", "50,50,50,50", "--path", "closed",
     "--reduced"],
    ["--level", "100", "--genus", "150", "--labels", "1", "--path", "closed", "--reduced"],
    ["--level", "100", "--genus", "180", "--labels", "50,50,50,50", "--path", "fs"],
])
def test_sums_out_of_double_range_exhaust_precision(capsys, argv):
    code = main(["quantize", *argv, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    got = json.loads(captured.out)
    assert (got["coeffs"], got["reduced"]) == _closed_answer(capsys, argv)


def test_reduced_value_past_2_53_exhausts_precision(capsys):
    # The float reduced sum was about 2.2e20, where doubles skip integers,
    # and was refused; the reduced value is now the trace itself.
    argv = ["--level", "8", "--labels", ",".join(["4"] * 100), "--path", "closed", "--reduced"]
    code = main(["quantize", *argv, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["reduced"] == 218922995834555169026
    assert _closed_answer(capsys, argv)[1] == 218922995834555169026


def test_internal_failure_exit_code(capsys, monkeypatch):
    # force an inconsistency to check the exit-code mapping
    from verlinde import cli
    from verlinde.quantization import InexactDivision

    def boom(*args, **kwargs):
        raise InexactDivision("forced")

    monkeypatch.setattr(cli, "quantize_surface", boom)
    code = main(["quantize", "--level", "4", "--labels", "2,2"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["quantize", "--level", "4.5"],
    ["quantize"],
    ["tables", "--r", "5", "--level", "4"],
    ["verify", "--max-level", "x"],
    ["quantize", "--level", "4", "--labels", "2.5"],
])
def test_malformed_arguments_exit_1(capsys, argv):
    # exit 2 is kept for internal consistency failures
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["quantize", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this package; its
    standard output."""
    src = str(Path(verlinde.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_loads_neither_numpy_nor_oracles():
    # numpy and the oracles load on first need; the public names resolve all
    # the same (tests/test_fusion_ring.py pins them), and the integer rule
    # still refuses a numpy bool once numpy is there.
    _run_python(
        "import sys\n"
        "import verlinde\n"
        "assert 'numpy' not in sys.modules, 'numpy'\n"
        "assert 'verlinde.oracles' not in sys.modules, 'oracles'\n"
        "missing = [name for name in verlinde.__all__ if not hasattr(verlinde, name)]\n"
        "assert not missing, missing\n"
        "assert set(verlinde.__all__) <= set(dir(verlinde))\n"
        "assert 'numpy' in sys.modules and verlinde.oracles is sys.modules['verlinde.oracles']\n"
        "import numpy as np\n"
        "from verlinde.fusion_ring import _check_int\n"
        "try:\n"
        "    _check_int(np.bool_(True), 'level')\n"
        "except TypeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a numpy bool passed the integer rule')\n")


# name: (argv, whether it loads numpy).  No quantize request loads it: fs
# and reduced are certified in integers.  K0 = 26 was the level above which
# the float S-matrix path took numpy.  verify and tables load it with the
# oracles.
_COLD_REQUESTS = {
    "setup": (["quantize", "--level", "4", "--labels", "2,2", "--psi", "0,0", "--path", "both",
               "--reduced", "--format", "json"], False),
    "prequant": (["prequant", "--level", "4", "--labels", "2,2"], False),
    "fusion-mult": (["fusion", "mult", "--level", "4", "--a", "0,1,0,0,0", "--b", "0,0,1,0,0"],
                    False),
    "closed": (["quantize", "--level", "12", "--genus", "1", "--labels", "1,6,6"], False),
    "both-at-K0": (["quantize", "--level", "26", "--genus", "1", "--labels", "1,1",
                    "--path", "both", "--reduced", "--all-choices"], False),
    "fs-past-K0": (["quantize", "--level", "27", "--labels", "1,1", "--path", "fs"], False),
    "high-level": (["quantize", "--level", "396", "--genus", "2", "--labels", "71,250,283,343",
                    "--path", "both", "--reduced"], False),
    "tables": (["tables", "--r", "2", "--level", "4"], True),
}


@pytest.mark.parametrize("argv, loads", _COLD_REQUESTS.values(), ids=_COLD_REQUESTS)
def test_requests_import_numpy_only_on_need(argv, loads):
    out = _run_python(
        "import sys\n"
        "from verlinde.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('numpy' in sys.modules)\n")
    assert out.splitlines()[-1] == str(loads)


def test_from_idempotent_loads_numpy_when_called():
    # from_idempotent is the public float API: importing it loads no numpy,
    # and a call loads it, to read any vector, a list of Python numbers too.
    _run_python(
        "import sys\n"
        "from verlinde.fusion_ring import from_idempotent\n"
        "assert 'numpy' not in sys.modules, 'numpy on import'\n"
        "assert from_idempotent([1.0] * 27).coeffs == (1,) + (0,) * 26\n"
        "assert from_idempotent((0, 0, 3, 0.0, 0)).coeffs == (1, 0, -1, 0, 1)\n"
        "try:\n"
        "    from_idempotent([])\n"
        "except ValueError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('an empty vector passed')\n"
        "assert 'numpy' in sys.modules, 'numpy'\n")


def test_criterion_4_box_loads_no_numpy():
    # Every request of the box (k <= 20) on the closed, fs and reduced
    # paths, as verify and the benchmark's sweep send them: no numpy array,
    # no numpy.fft.  The surfaces are built here, as the oracles that list
    # them import numpy themselves.
    surfaces = [(s.level, s.genus, s.labels) for s in sweep_surfaces(20, 5, 2)]
    out = _run_python(
        "import sys\n"
        "from verlinde.prequant import SurfaceData, enumerate_choices\n"
        "from verlinde.quantization import fs_formula, quantize_surface, reduced_quantization\n"
        "requests = 0\n"
        f"for args in {surfaces!r}:\n"
        "    surf = SurfaceData(*args)\n"
        "    for choice in enumerate_choices(surf):\n"
        "        exact = quantize_surface(surf, choice).element\n"
        "        assert fs_formula(surf, choice).element == exact, (surf, choice)\n"
        "        assert reduced_quantization(surf, choice) == exact.trace, (surf, choice)\n"
        "        requests += 1\n"
        "assert 'numpy' not in sys.modules, 'numpy'\n"
        "print(requests)\n")
    assert out.split() == ["31324"]


def test_setup_request_output_is_unchanged(capsys):
    code, out = run(capsys, *_COLD_REQUESTS["setup"][0])
    assert code == 0
    assert out == ('[{"level": 4, "coeffs": [1, 0, 0, 0, 1], "reduced": 1, "path": '
                   '"closed_form", "choice": {"psi_bits": [0, 0]}}, {"level": 4, "coeffs": '
                   '[1, 0, 0, 0, 1], "reduced": 1, "path": "fs_float", "choice": {"psi_bits": '
                   '[0, 0]}}]\n')
