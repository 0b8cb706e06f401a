"""`analyze --curves-file` with a file that holds no curve, or with `--curve`."""

import io

import pytest

from tjurina.cli import main


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_file_without_a_curve_is_bad_input(tmp_path, capsys, json_flag):
    path = tmp_path / "curves.txt"
    path.write_text("\n# x^2 - y^3\n   \n#\n", encoding="utf-8")
    out = io.StringIO()
    code = main(["analyze", f"--curves-file={path}", "--point=0,0", *json_flag], out=out)
    assert code == 2 and out.getvalue() == ""
    assert capsys.readouterr().err == f"error: no curve in {path}\n"


def test_a_file_with_one_curve_among_comments_is_analyzed(tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text("# a cusp\n\ny^2 - x^3\n", encoding="utf-8")
    out = io.StringIO()
    assert main(["analyze", f"--curves-file={path}", "--point=0,0"], out=out) == 0
    assert "A_2 (tau = 2)" in out.getvalue()


def test_a_curve_given_with_a_file_is_bad_input(tmp_path, capsys):
    # one of the two would go unread: a usage error, not a silent choice
    path = tmp_path / "curves.txt"
    path.write_text("y^2 - x^3\n", encoding="utf-8")
    out = io.StringIO()
    code = main(["analyze", "--curve=y^2-x^5", f"--curves-file={path}", "--point=0,0"], out=out)
    assert code == 2 and out.getvalue() == ""
    assert capsys.readouterr().err == "error: give --curve or --curves-file, not both\n"
