import json

import pytest

from verlinde.cli import main
from verlinde.fusion_ring import FusionElement
from verlinde.prequant import SurfaceData


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
        outputs.add((code, captured.out, captured.err))
    assert len(outputs) == 1
    assert outputs.pop()[0] == 0


def test_quantize_beyond_gamma_enumeration_cap(capsys):
    code, out = run(capsys, "quantize", "--level", "2", "--genus", "11",
                    "--psi", ",".join("0" * 22), "--path", "both", "--reduced")
    assert code == 0
    assert "coeffs [0, 0, 1]  reduced 0" in out


def test_precision_exhausted_exit_code(capsys):
    # the float path cannot certify coefficients near 1e89: exit 3, no output
    code = main(["quantize", "--level", "60", "--genus", "30", "--path", "fs"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("precision exhausted:")


# Float sums out of double range: an inf to round, |Gamma| = 2^2003 past
# float conversion, 4^h in the double factor, +inf and -inf in one reduced
# sum, and an infinite block sum beside a finite identity term.
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
    code = main(["quantize", *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("precision exhausted:")
    assert captured.err.count("\n") == 1


def test_internal_failure_exit_code(capsys, monkeypatch):
    # force an inconsistency to check the exit-code mapping
    from verlinde import cli
    from verlinde.quantization import InexactDivision

    def boom(*args, **kwargs):
        raise InexactDivision("forced")

    monkeypatch.setattr(cli, "quantize_surface", boom)
    code = main(["quantize", "--level", "4", "--labels", "2,2"])
    assert code == 2
