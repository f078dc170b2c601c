import json
import xml.dom.minidom

import pytest

from quartichull.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_exact_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--curve", "fermat")
    assert code == 0
    assert "verdict: Exact" in out


def test_check_not_exact_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--curve", "smoothconvex")
    assert code == 1
    assert "verdict: NotExact" in out
    assert "witness: x1" in out


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "--curve", "fermat", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Exact"


def test_usage_errors(capsys):
    assert run(capsys, "check", "--curve", "nosuch")[0] == 64
    assert run(capsys, "check", "--poly", "x1 + +")[0] == 64
    assert run(capsys, "check")[0] == 64  # no input given
    assert run(capsys, "check", "--curve", "egg", "--poly", "x1")[0] == 64
    assert run(capsys, "minimize", "x1*x2", "--curve", "egg")[0] == 64
    assert run(capsys, "minimize", "x1", "--curve", "egg", "-k", "1")[0] == 64
    assert run(capsys, "rational", "--curve", "egg")[0] == 64
    assert run(capsys, "boundary", "--curve", "egg", "-k", "x")[0] == 64
    assert run(capsys, "minimize", "x1", "--curve", "egg", "-k", "5..2")[0] == 64
    assert run(capsys, "check", "--curve", "egg", "--tol", "-1")[0] == 64
    assert run(capsys, "check", "--curve", "egg", "-n", "4")[0] == 64
    assert run(capsys, "sos", "--curve", "egg", "--line", "2,0,-2", "-k", "2..4")[0] == 64
    assert run(capsys, "check", "--curve", "egg", "-k", "3")[0] == 64  # not read by check
    # a curve must be a nonzero polynomial of degree at most 4
    assert run(capsys, "check", "--poly", "x1^5 - x2")[0] == 64
    assert run(capsys, "minimize", "x1", "--poly", "x1^5-1")[0] == 64
    assert run(capsys, "boundary", "--poly", "x1^5-1")[0] == 64
    assert run(capsys, "sos", "--poly", "x1^5-1", "--line", "1,0,0")[0] == 64
    assert run(capsys, "singularities", "--poly", "0")[0] == 64
    # non-finite numbers, as written or after expansion, are bad input
    assert run(capsys, "check", "--curve", "smoothconvex", "--tol", "nan", "-n", "36")[0] == 64
    assert run(capsys, "check", "--curve", "smoothconvex", "--tol", "inf", "-n", "36")[0] == 64
    assert run(capsys, "sos", "--curve", "egg", "--line", "nan,0,0")[0] == 64
    assert run(capsys, "singularities", "--poly", "1e400*x1^2-x2")[0] == 64
    assert run(capsys, "minimize", "1e400*x1", "--curve", "egg")[0] == 64
    assert run(capsys, "singularities", "--poly", "(1e200*x1)^2-x2")[0] == 64
    # a zero denominator is a parse error, not a traceback that exits 1
    code, _, err = run(capsys, "check", "--poly", "1/0 - x1^2 - x2^2")
    assert code == 64 and "cannot parse polynomial" in err
    assert run(capsys, "minimize", "1/0*x1", "--curve", "egg")[0] == 64
    # an output file that cannot be written
    code, _, err = run(capsys, "singularities", "--curve", "bean",
                       "--out", "/nonexistent/dir/x.json")
    assert code == 64 and "cannot write output file" in err
    code, _, err = run(capsys, "minimize", "x1", "--curve", "egg", "-k", "2",
                       "--out", "/nonexistent/x.csv")
    assert code == 64 and "cannot write output file" in err


def test_deep_nesting_is_a_parse_error(capsys):
    # deeper than the interpreter's recursion limit: bad input, not a
    # RecursionError traceback that exits 1
    for text in ("(" * 400 + "x1" + ")" * 400, "2*" + "-" * 3000 + "x1"):
        code, _, err = run(capsys, "check", f"--poly={text}")
        assert code == 64 and "cannot parse polynomial" in err


def test_check_text_names_a_non_isolated_singular_locus_once(capsys):
    # a non-reduced curve is singular all along; its grid-fallback samples
    # are not printed one by one
    code, out, _ = run(capsys, "check", "--poly=-(x1^2 + x2^2 - 1)^2")
    assert code == 2
    lines = out.splitlines()
    assert lines.count("singular locus (affine): not isolated "
                       "(grid-fallback samples, not certified)") == 1
    assert not any(ln.startswith("singular point (affine)") for ln in lines)


def test_json_names_a_non_isolated_singular_locus_once(capsys):
    # the grid-fallback samples become one locus record with no coordinates;
    # the points at infinity stay
    locus = {"locus": "not isolated", "certified": False, "at_infinity": False}
    code, out, _ = run(capsys, "singularities", "--poly=-(x1^2 + x2^2 - 1)^2")
    assert code == 0
    assert json.loads(out) == [locus]
    code, out, _ = run(capsys, "check", "--poly=-(x1^2 + x2^2 - 1)^2", "--format", "json")
    assert code == 2
    assert json.loads(out)["singular_points"] == [locus]
    code, out, _ = run(capsys, "singularities", "--poly=-(x2 - x1^2)^2")
    data = json.loads(out)
    assert data[0] == locus
    assert [s["location"] for s in data[1:]] == [[0.0, 0.0, 1.0]]
    assert all(s["at_infinity"] for s in data[1:])


def test_minimize_unbounded(capsys):
    # the parabola x2 = x1^2 runs off to x2 = +inf, so -x2 has no lower bound
    argv = ("minimize", "0 - x2", "--poly", "x2 - x1^2", "-k", "2..3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1:] == ["2;-inf;Unbounded", "3;-inf;Unbounded"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert [r["bound"] for r in json.loads(out)["bounds"]] == ["-inf", "-inf"]


def test_minimize_csv(capsys):
    code, out, _ = run(capsys, "minimize", "x2", "--curve", "egg", "-k", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k;bound;status"
    k, bound, status = lines[1].split(";")
    assert k == "2"
    assert status == "Optimal"
    assert float(bound) < -0.9  # egg reaches down to about -1.08


def test_minimize_missing_bound(capsys, monkeypatch):
    # an order without a certified bound prints an empty bound and the
    # solver's status; a ';' in that text must not add a field
    from quartichull import relaxation

    def fake(p, f, orders):
        return [(2, -0.25, "Optimal"),
                (5, None, "support solve returned Numerical: a; b")]

    monkeypatch.setattr(relaxation, "minimize_linear", fake)
    code, out, _ = run(capsys, "minimize", "x1 + 1", "--curve", "bean", "-k", "2..5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1].split(";") == ["2", "0.75", "Optimal"]
    assert lines[2].split(";") == ["5", "", "support solve returned Numerical: a, b"]

    code, out, _ = run(capsys, "minimize", "x1", "--curve", "bean", "-k", "2..5",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["bounds"]
    assert rows[0]["bound"] == -0.25
    assert rows[1]["bound"] is None
    assert rows[1]["status"].startswith("support solve returned Numerical")


def test_boundary_csv_row_counts(capsys):
    code, out, _ = run(capsys, "boundary", "--curve", "fermat",
                       "-k", "2..3", "-n", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines.count("# order k=2") == 1
    assert lines.count("# order k=3") == 1
    header_rows = [ln for ln in lines if ln.startswith("angle")]
    assert len(header_rows) == 2
    data_rows = [ln for ln in lines if ln and not ln.startswith(("#", "angle"))]
    assert len(data_rows) == 16  # 8 per order


def test_boundary_determinism(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code = main(["boundary", "--curve", "fermat", "-k", "2", "-n", "12",
                     "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_boundary_svg_well_formed(capsys, tmp_path):
    path = tmp_path / "hull.svg"
    code = main(["boundary", "--curve", "fermat", "-k", "2..3", "-n", "16",
                 "--format", "svg", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    doc = xml.dom.minidom.parse(str(path))
    paths = doc.getElementsByTagName("path")
    assert len(paths) == 2  # one layer per order
    for el in paths:
        d = el.getAttribute("d")
        assert d.startswith("M ") and d.endswith(" Z")


def test_rational_text_output(capsys):
    code, out, _ = run(capsys, "rational", "--curve", "folium")
    assert code == 0
    assert "2*y0" in out
    assert "liftings: y0, y1" in out


def test_sos_feasible_and_infeasible(capsys):
    code, out, _ = run(capsys, "sos", "--curve", "egg", "--line", "2,0,-2")
    assert code == 0
    data = json.loads(out)
    assert len(data["squares"]) >= 1
    code, out, _ = run(capsys, "sos", "--curve", "bean", "--line", "0,1,0")
    assert code == 1
    assert json.loads(out)["feasible"] is False


def test_singularities_json(capsys):
    code, out, _ = run(capsys, "singularities", "--curve", "lemniscate")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["location"] == [1.0, 0.0, 0.0]


def test_poly_file_input(capsys, tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text("1 - x1^4 - x2^4\n")
    code, out, _ = run(capsys, "check", "--poly-file", str(path))
    assert code == 0
    assert "Exact" in out
    path.write_text("1/0 - x1^2 - x2^2\n")
    code, _, err = run(capsys, "check", "--poly-file", str(path))
    assert code == 64 and "cannot parse polynomial" in err


def test_check_has_no_tolerance_flag(capsys):
    # the sweep's margin test is the package's own (-FEAS_MARGIN); check
    # takes no tolerance
    code, _, err = run(capsys, "check", "--curve", "egg", "--tol", "1e-7")
    assert code == 64 and "unrecognized arguments: --tol" in err


def test_check_text_lists_a_classified_singular_point(capsys):
    code, out, _ = run(capsys, "check", "--curve", "bean")
    assert code == 1
    assert out.splitlines() == ["verdict: NotExact", "witness: x1",
                                "singular point (affine): (1, 0, 0) [on_boundary]"]


def test_boundary_json(capsys):
    code, out, _ = run(capsys, "boundary", "--curve", "egg", "-k", "2..3", "-n", "8",
                       "--format", "json")
    assert code == 0
    orders = json.loads(out)["orders"]
    assert list(orders) == ["2", "3"]
    for rows in orders.values():
        assert len(rows) == 8
        assert all(list(r) == ["angle", "f1", "f2", "support", "x1", "x2", "status"]
                   for r in rows)
        # the support is attained at the boundary point of its row
        assert all(r["f1"] * r["x1"] + r["f2"] * r["x2"] == pytest.approx(r["support"], abs=1e-9)
                   for r in rows)


def test_rational_json(capsys):
    code, out, _ = run(capsys, "rational", "--curve", "bean", "--format", "json")
    assert code == 0
    data = json.loads(out)
    checked = data["agreement"]["checked"]
    assert 0 < checked <= 200 and data["agreement"]["agree"] == checked
    assert data["retained"]


def test_an_undecided_certificate_exits_inconclusive(capsys, monkeypatch):
    # the IndeterminateResult of any command ends in main: exit 2, the
    # reason on stderr, nothing on stdout
    from quartichull import cli
    from quartichull.sos import IndeterminateResult

    def undecided(line, p, k):
        raise IndeterminateResult("stubbed solve")

    monkeypatch.setattr(cli, "certify_in_fk", undecided)
    code, out, err = run(capsys, "sos", "--curve", "egg", "--line", "2,0,-2")
    assert (code, out, err) == (2, "", "indeterminate: stubbed solve\n")
