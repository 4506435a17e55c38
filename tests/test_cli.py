import json
import math
import sys
from pathlib import Path

import pytest

import chebotarev.cli as cli_module
import chebotarev.factor as factor_module
import chebotarev.poly as poly_module
from chebotarev import ComplexPoly, InconsistentFactorization, factorize
from chebotarev.cli import build_parser, main

from conftest import INTEGER_FIELDS, chebyshev, spy_everywhere

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
#: ``report.json`` of ``verify --resolution 256`` and ``trace.json`` of
#: ``trace --steps 128``, manifest removed, as written before ``verify`` and
#: ``trace`` shared one factorization between their stages; those of the two
#: inputs with interior crossings as written before warm level solves
#: stopped taking Newton polish steps.  The two ``report.json`` documents
#: were written again once ``factorize`` took the zeros of T -+ 1 from the
#: critical points, sharpened by compensated Newton steps: their last digits
#: moved by at most 1.3e-15 (Re Phi) and 6.1e-14 (quadrature error).
#: Both ``report.json`` documents and the ``trace.json`` of star5 and
#: t4_alpha2 were written again once cold root solves took the eigenvalues
#: of the companion matrix: the critical points on rect_n7's double zeros of
#: T' moved by at most 6.6e-9 (their images by 1.3e-15), and those on star5's
#: fourfold zero and the crossings of star5 and t4_alpha2 became exact.
GOLDEN = Path(__file__).resolve().parent / "golden"
FROZEN = {
    "rect_n7": ("verify", "trace"),
    "star5": ("verify", "trace"),
    "t4_alpha2": ("trace",),
    "cross_alpha1": ("trace",),
}
#: ``solution.json`` of ``solve`` on each rectangle fixture, manifest removed,
#: as written before the problem spec was compiled into an affine point map.
SOLVED = json.loads((GOLDEN / "solve_rectangles.json").read_text())


def run(*argv):
    return main([str(a) for a in argv])


class TestSolveCommand:
    def test_rectangle_n5(self, tmp_path, capsys):
        code = run("solve", FIXTURES / "rect_n5.json", "--out", tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "capacity" in out and "residual_inf" in out
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert abs(doc["d"][0][0] - 2.0 / 3.0) < 1e-9
        assert abs(doc["c"][0][1] - math.sqrt(5.0 / 27.0)) < 1e-9
        assert doc["residual_inf_norm"] < 1e-11
        assert doc["manifest"]["seed"] == 0

    def test_deterministic_output(self, tmp_path):
        assert run("solve", FIXTURES / "rect_n7.json", "--out", tmp_path) == 0
        first = (tmp_path / "solution.json").read_bytes()
        assert run("solve", FIXTURES / "rect_n7.json", "--out", tmp_path) == 0
        assert (tmp_path / "solution.json").read_bytes() == first

    @pytest.mark.parametrize("name", list(SOLVED))
    def test_solution_matches_frozen_document(self, name, tmp_path):
        assert run("solve", FIXTURES / f"{name}.json", "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert doc.pop("manifest")["subcommand"] == "solve"
        assert doc == SOLVED[name]

    def test_sweep_reports_distinct_solutions(self, tmp_path, capsys):
        code = run("solve", FIXTURES / "rect_n5.json", "--out", tmp_path, "--sweep", "3")
        assert code == 0
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert "sweep_distinct" in doc and len(doc["sweep_distinct"]) >= 1

    def test_tol_override_reaches_the_solver(self, tmp_path):
        assert run("solve", FIXTURES / "rect_n5.json", "--out", tmp_path, "--tol", "1e-30") == 3
        assert not (tmp_path / "solution.json").exists()
        assert run("solve", FIXTURES / "rect_n9_system1.json", "--out", tmp_path,
                   "--tol", "1e-10", "--sweep", "2") == 0
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert doc["manifest"]["tol"] == 1e-10
        assert doc["residual_inf_norm"] < 1e-10

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("solve", bad, "--out", tmp_path) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run("solve", tmp_path / "nope.json", "--out", tmp_path) == 2

    def test_incomplete_spec_exits_2(self, tmp_path):
        bad = tmp_path / "incomplete.json"
        bad.write_text(json.dumps({"n": 5, "nu": 4}))
        assert run("solve", bad, "--out", tmp_path) == 2

    def test_dangling_link_exits_2(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "rect_n5.json").read_text())
        doc["vars"][1]["target"] = {"role": "c", "index": 7}
        bad = tmp_path / "dangling.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--out", tmp_path) == 2
        assert "link target ('c', 7) does not exist" in capsys.readouterr().err
        assert not (tmp_path / "solution.json").exists()

    def test_negative_sweep_exits_2(self, tmp_path):
        assert run("solve", FIXTURES / "rect_n5.json", "--out", tmp_path, "--sweep", "-1") == 2
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["vars"][0].update(initial=[1.0, math.nan]),
        lambda doc: doc["vars"][0].update(value=[math.inf, 0.0]),
        lambda doc: doc["vars"][4].update(initial=math.nan),
        lambda doc: doc["options"].update(max_iter=math.inf),
        lambda doc: doc["options"].update(damping=math.nan),
        lambda doc: doc["options"].update(residual_tol=math.nan),
    ], ids=["initial", "value", "real-initial", "max_iter", "damping", "residual_tol"])
    def test_non_finite_spec_exits_2(self, edit, tmp_path, recwarn):
        # Python's json reads and writes NaN and Infinity; they are
        # malformed input here, not a solution full of NaN
        doc = json.loads((FIXTURES / "rect_n5.json").read_text())
        edit(doc)
        bad = tmp_path / "non_finite.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--out", tmp_path) == 2
        assert not (tmp_path / "solution.json").exists()
        assert not recwarn.list

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["vars"][0].update(initial="1+0.4j"),
        lambda doc: doc["vars"][0].update(value=True),
        lambda doc: doc["vars"][0].update(initial=[1.0, 0.4, 9.0]),
    ], ids=["string-initial", "boolean-value", "triple-initial"])
    def test_non_number_spec_exits_2(self, edit, tmp_path, capsys):
        doc = json.loads((FIXTURES / "rect_n5.json").read_text())
        edit(doc)
        bad = tmp_path / "non_number.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--out", tmp_path) == 2
        assert "expected a real number or an [re, im] pair" in capsys.readouterr().err
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(options=[]),
        lambda doc: doc["vars"].__setitem__(0, "x"),
    ], ids=["options-list", "vars-entry-string"])
    def test_non_object_container_exits_2(self, edit, tmp_path, capsys):
        doc = json.loads((FIXTURES / "rect_n5.json").read_text())
        edit(doc)
        bad = tmp_path / "non_object.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed problem document: ") and "must be an object" in err
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("field", list(INTEGER_FIELDS))
    def test_fractional_integer_field_exits_2(self, field, tmp_path, capsys):
        doc = json.loads((FIXTURES / "rect_n7.json").read_text())
        holder, key = INTEGER_FIELDS[field](doc)
        holder[key] += 0.5
        bad = tmp_path / "fraction.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--out", tmp_path) == 2
        assert "malformed problem document: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
    @pytest.mark.parametrize("command, fixture", [("solve", "rect_n5.json"),
                                                  ("verify", "star5.json")])
    def test_bad_tol_exits_2(self, command, fixture, tol, tmp_path):
        assert run(command, FIXTURES / fixture, "--out", tmp_path, "--tol", tol) == 2
        assert list(tmp_path.iterdir()) == []

    def test_unconvergeable_exits_3(self, tmp_path):
        doc = json.loads((FIXTURES / "rect_n7.json").read_text())
        doc["options"]["max_iter"] = 1
        for var in doc["vars"]:
            if var.get("initial") is not None and var["role"] != "c":
                var["initial"] = 0.95
        bad = tmp_path / "stall.json"
        bad.write_text(json.dumps(doc))
        assert run("solve", bad, "--out", tmp_path) == 3

    def test_degenerate_exits_4(self, tmp_path):
        doc = {
            "n": 5, "nu": 4, "alpha": [1, 1, -1, -1], "gamma": [-1, 1], "beta": [],
            "vars": [
                {"role": "c", "index": i, "status": "fixed", "value": [0.0, 0.0]}
                for i in range(1, 5)
            ] + [
                {"role": "d", "index": i, "status": "fixed", "value": [0.0, 0.0]}
                for i in (1, 2)
            ],
        }
        f = tmp_path / "degenerate.json"
        f.write_text(json.dumps(doc))
        assert run("solve", f, "--out", tmp_path) == 4

    def test_sweep_runs_when_default_start_fails(self, tmp_path):
        # from z1 = 0.7 the default start collapses (exit 4); the sweep's
        # perturbed starts still find the continuum
        doc = json.loads((FIXTURES / "rect_n7.json").read_text())
        for var in doc["vars"]:
            if (var["role"], var["index"]) == ("z", 1):
                var["initial"] = 0.7
        f = tmp_path / "bad_start.json"
        f.write_text(json.dumps(doc))
        assert run("solve", f, "--out", tmp_path) == 4
        assert run("solve", f, "--out", tmp_path, "--sweep", "3") == 0
        solution = json.loads((tmp_path / "solution.json").read_text())
        assert solution["residual_inf_norm"] < 1e-10


class TestVerifyCommand:
    def test_monomial_passes(self, tmp_path, capsys):
        code = run("verify", FIXTURES / "star5.json", "--out", tmp_path,
                   "--resolution", "256")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert abs(report["capacity"] - 2.0 ** (-0.2)) < 1e-12
        assert report["conditions"]["passed"] is True

    def test_disconnected_fails_with_3(self, tmp_path):
        code = run("verify", FIXTURES / "t3_alpha2.json", "--out", tmp_path,
                   "--resolution", "256")
        assert code == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["connectivity"]["connected"] is False
        assert report["grid"]["component_count"] == 2
        assert report["passed"] is False

    def test_residuals_come_from_factorize(self, tmp_path):
        path = FIXTURES / "t4_alpha2.json"
        assert run("verify", path, "--out", tmp_path, "--resolution", "64") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        fac = factorize(ComplexPoly(json.loads(path.read_text())["coeffs"]))
        assert report["factorization"]["level_product_residual"] == fac.level_residual
        assert report["factorization"]["derivative_product_residual"] == fac.derivative_residual

    def test_quartic_passes(self, tmp_path):
        assert run("verify", FIXTURES / "t4_alpha2.json", "--out", tmp_path,
                   "--resolution", "256") == 0

    def test_malformed_poly_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        # complex() alone would read true as 1, "-2" as -2 and a triple by its first two
        for doc in ({"wrong_key": [1, 2]}, 5, {"coeffs": 3}, {"coeffs": [[1]]}, [None, 1],
                    {"coeffs": "1234"}, {"coeffs": [True, "-2", 1]},
                    {"coeffs": [[1, 0, 99], -2, 1]}, {"coeffs": [[1, False], 0, 1]},
                    {"coeffs": [10 ** 400, 0, 1]}):
            bad.write_text(json.dumps(doc))
            for command in ("verify", "trace"):
                assert run(command, bad, "--out", tmp_path) == 2, (command, doc)

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["verify", "trace"])
    def test_non_finite_coefficient_exits_2(self, command, value, tmp_path, recwarn):
        # Python's json reads NaN and Infinity; they are malformed input here
        bad = tmp_path / "bad.json"
        for coeffs in (f"[{value}, 0, 1]", f"[0, 0, {value}]", f"[[0, {value}], 1]"):
            bad.write_text(f'{{"coeffs": {coeffs}}}')
            assert run(command, bad, "--out", tmp_path) == 2, coeffs
        assert not recwarn.list


class TestMainExitMapping:
    """Each command's errors reach their exit code through ``main`` alone."""

    def test_degree_one_exits_2(self, tmp_path, capsys):
        line = tmp_path / "line.json"
        line.write_text(json.dumps({"coeffs": [0, 1]}))
        assert run("verify", line, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: connectivity criterion needs degree >= 2\n"
        assert not (tmp_path / "out").exists()

    def test_low_resolution_exits_2(self, tmp_path, capsys):
        assert run("verify", FIXTURES / "t4_alpha2.json", "--out", tmp_path,
                   "--resolution", "10") == 2
        assert "resolution must be at least 64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_package_error_exits_3(self, monkeypatch, tmp_path, capsys):
        def inconsistent(*args, **kwargs):
            raise InconsistentFactorization("branch points are not pairwise distinct")

        monkeypatch.setattr(cli_module, "factorize", inconsistent)
        assert run("verify", FIXTURES / "star5.json", "--out", tmp_path) == 3
        assert capsys.readouterr().err == "error: branch points are not pairwise distinct\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["verify", "trace"])
    def test_refused_factorization_exits_3(self, command, tmp_path, capsys):
        # z^18 is past the coefficient wall: its square is not reproduced
        z18 = tmp_path / "z18.json"
        z18.write_text(json.dumps({"coeffs": [0] * 18 + [1]}))
        assert run(command, z18, "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err.startswith("error: T^2 - 1 reproduction residual ")
        assert not (tmp_path / "out").exists()


class TestTraceCommand:
    def test_star_outputs(self, tmp_path, capsys):
        code = run("trace", FIXTURES / "star5.json", "--out", tmp_path,
                   "--steps", "128")
        assert code == 0
        out = capsys.readouterr().out
        assert "arcs          5" in out
        csv = (tmp_path / "arcs.csv").read_text()
        assert csv.splitlines()[0] == "arc_id,theta,re,im"
        svg = (tmp_path / "continuum.svg").read_text()
        assert svg.startswith("<svg ")
        summary = json.loads((tmp_path / "trace.json").read_text())
        assert summary["arcs"] == 5
        assert len(summary["crossing_points"]) == 1

    def test_segment_summary(self, tmp_path, capsys):
        code = run("trace", FIXTURES / "cheb2.json", "--out", tmp_path,
                   "--steps", "128")
        assert code == 0
        summary = json.loads((tmp_path / "trace.json").read_text())
        assert summary["arcs"] == 1
        assert summary["leaves"] == 2
        assert summary["edges"] == 1

    @pytest.mark.parametrize("steps", ["63", "0", "-5"])
    def test_too_few_steps_exits_2_before_any_root_solve(self, steps, tmp_path, capsys,
                                                         factorize_calls, root_solves):
        assert run("trace", FIXTURES / "star5.json", "--out", tmp_path,
                   "--steps", steps) == 2
        assert "steps must be at least 64" in capsys.readouterr().err
        assert factorize_calls == [] and root_solves == []
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("trace", FIXTURES / "cheb2.json", "--out", a, "--steps", "128")
        run("trace", FIXTURES / "cheb2.json", "--out", b, "--steps", "128")
        assert (a / "arcs.csv").read_bytes() == (b / "arcs.csv").read_bytes()
        assert (a / "continuum.svg").read_bytes() == (b / "continuum.svg").read_bytes()


class TestParserReuse:
    """One parser serves every in-process call of ``main``."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_options_do_not_carry_over(self, tmp_path):
        assert run("verify", FIXTURES / "star5.json", "--out", tmp_path,
                   "--resolution", "64", "--tol", "1e-3") == 0
        first = json.loads((tmp_path / "report.json").read_text())["manifest"]
        assert first["tol"] == 1e-3 and first["resolution"] == 64
        assert run("verify", FIXTURES / "star5.json", "--out", tmp_path) == 0
        second = json.loads((tmp_path / "report.json").read_text())["manifest"]
        assert second["tol"] is None and second["resolution"] == 512

    def test_successive_traces_write_the_same_bytes(self, tmp_path):
        outputs = []
        for _ in range(2):
            assert run("trace", FIXTURES / "star5.json", "--out", tmp_path,
                       "--steps", "128") == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in ("arcs.csv", "continuum.svg", "trace.json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bad", [["trace"], ["trace", "x.json", "--steps", "many"],
                                     ["nosuch"], []])
    def test_works_after_an_argument_error(self, bad, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert run("trace", FIXTURES / "cheb2.json", "--out", tmp_path, "--steps", "64") == 0
        summary = json.loads((tmp_path / "trace.json").read_text())
        assert summary["manifest"]["steps"] == 64 and summary["arcs"] == 1


class TestAberthOnlyForLevels:
    @pytest.mark.parametrize("command", ["verify", "trace"])
    @pytest.mark.parametrize("name", ["star5", "rect_n7", "cheb24"])
    def test_cold_solves_take_eigenvalues(self, name, command, tmp_path, monkeypatch):
        # every cold solve is one eigenvalue solve; Aberth sweeps serve the
        # tracer's level blocks alone
        if name == "cheb24":
            path = tmp_path / "cheb24.json"
            path.write_text(json.dumps({"coeffs": [c.real for c in chebyshev(24).coeffs]}))
        elif name == "rect_n7":
            path = _solved_poly_file(tmp_path, "rect_n7.json")
        else:
            path = FIXTURES / "star5.json"
        real_aberth, callers = poly_module._aberth, []

        def aberth(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_aberth(*args)

        monkeypatch.setattr(poly_module, "_aberth", aberth)
        extra = ["--resolution", "64"] if command == "verify" else ["--steps", "64"]
        assert run(command, path, "--out", tmp_path, *extra) == 0
        assert set(callers) == ({"level_roots"} if command == "trace" else set()), callers


class TestSolvedPolynomialRoundTrip:
    def test_solve_verify_trace_loop(self, tmp_path):
        # the polynomial coming out of solve must sail through the full
        # verification battery and trace to the expected tree
        assert run("solve", FIXTURES / "rect_n5.json", "--out", tmp_path) == 0
        solution = json.loads((tmp_path / "solution.json").read_text())
        poly_file = tmp_path / "solved_poly.json"
        poly_file.write_text(json.dumps({"coeffs": solution["coeffs"]}))

        assert run("verify", poly_file, "--out", tmp_path, "--resolution", "256") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["factorization"]["min_arcs"] == 3
        assert report["conditions"]["max_abs_re_phi"] < 1e-6
        assert abs(report["capacity"] - solution["capacity"]) < 1e-12

        assert run("trace", poly_file, "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "trace.json").read_text())
        assert summary["arcs"] == 5
        assert summary["leaves"] == 4
        assert summary["degree3_vertices"] == 2
        assert summary["is_tree"] is True


class TestSecondNineSystem:
    def test_complex_tangency_quadruple(self, tmp_path):
        code = run("solve", FIXTURES / "rect_n9_system2.json", "--out", tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "solution.json").read_text())
        z1 = complex(*doc["z"][0])
        assert abs(z1 - (0.906406 + 0.49118j)) < 1e-5
        assert abs(doc["c"][0][1] - 0.594803) < 1e-5


class TestEveryFixtureRunsEndToEnd:
    PROBLEMS = sorted(p.name for p in FIXTURES.glob("rect_*.json"))
    POLYS = sorted(p.name for p in FIXTURES.glob("*.json")
                   if not p.name.startswith("rect_"))

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_problem_fixture(self, name, tmp_path):
        import time
        start = time.perf_counter()
        assert run("solve", FIXTURES / name, "--out", tmp_path) == 0
        assert time.perf_counter() - start < 60.0

    @pytest.mark.parametrize("name", POLYS)
    def test_polynomial_fixture(self, name, tmp_path):
        import time
        start = time.perf_counter()
        code = run("verify", FIXTURES / name, "--out", tmp_path,
                   "--resolution", "256")
        # disconnected members verify as failures by design
        expected = 3 if name in ("t3_alpha2.json", "t3_alpha3.json",
                                 "two_intervals.json") else 0
        assert code == expected
        assert run("trace", FIXTURES / name, "--out", tmp_path,
                   "--steps", "128") == 0
        assert time.perf_counter() - start < 60.0


@pytest.fixture
def factorize_calls(monkeypatch):
    return spy_everywhere(monkeypatch, factor_module.factorize)


def _repeated(polys):
    seen, out = set(), []
    for p in polys:
        if p in seen:
            out.append(p)
        seen.add(p)
    return out


def _solved_poly_file(tmp_path, problem):
    assert run("solve", FIXTURES / problem, "--out", tmp_path) == 0
    solution = json.loads((tmp_path / "solution.json").read_text())
    path = tmp_path / f"solved_{problem}"
    path.write_text(json.dumps({"coeffs": solution["coeffs"]}))
    return path


class TestOneFactorizationPerRun:
    """Every stage factorizes the one polynomial the run read; the first call
    splits it and stores the result, and the later ones look it up."""

    @pytest.mark.parametrize("name", ["star5.json", "t4_alpha2.json"])
    def test_verify_factorizes_once(self, name, tmp_path, factorize_calls, splits, root_solves):
        assert run("verify", FIXTURES / name, "--out", tmp_path, "--resolution", "64") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["conditions"]["passed"] is True
        assert len(factorize_calls) == 2  # cmd_verify, then the conditions
        assert len({id(T) for T in factorize_calls}) == 1
        assert len(splits) == 1
        assert _repeated(root_solves) == []

    @pytest.mark.parametrize("name", ["star5.json", "t4_alpha2.json", "cheb2.json"])
    def test_trace_factorizes_once(self, name, tmp_path, factorize_calls, splits, root_solves):
        assert run("trace", FIXTURES / name, "--out", tmp_path, "--steps", "64") == 0
        assert len(factorize_calls) == 3  # cmd_trace, trace and find_crossings
        assert len({id(T) for T in factorize_calls}) == 1
        assert len(splits) == 1
        assert _repeated(root_solves) == []

    @pytest.mark.parametrize("command", ["verify", "trace"])
    @pytest.mark.parametrize("name", ["rect_n7", "cheb16"])
    def test_one_derivative_solve_and_no_level_solve(self, name, command, tmp_path, root_solves):
        # factorize reads the multiple zeros of T -+ 1 off the roots of T'
        # that is_connected found, so nothing roots a polynomial of degree n
        if name == "cheb16":
            path = tmp_path / "cheb16.json"
            path.write_text(json.dumps({"coeffs": [c.real for c in chebyshev(16).coeffs]}))
        else:
            path = _solved_poly_file(tmp_path, f"{name}.json")
        n = len(json.loads(path.read_text())["coeffs"]) - 1
        root_solves.clear()
        extra = ["--resolution", "64"] if command == "verify" else ["--steps", "64"]
        assert run(command, path, "--out", tmp_path, *extra) == 0
        degrees = [p.degree for p in root_solves]
        assert degrees.count(n - 1) == 1 and n not in degrees, degrees

    @pytest.mark.parametrize("command", ["verify", "trace"])
    @pytest.mark.parametrize("name", ["star5", "t4_alpha2", "cross_alpha1", "t3_alpha2",
                                      "rect_n7"])
    def test_at_most_three_root_solves(self, name, command, tmp_path, root_solves):
        # T', and the simple zeros of T - 1 and of T + 1: the critical points
        # off +-1 come from the same roots of T'
        if name.startswith("rect_"):
            path = _solved_poly_file(tmp_path, f"{name}.json")
        else:
            path = FIXTURES / f"{name}.json"
        root_solves.clear()
        extra = ["--resolution", "64"] if command == "verify" else ["--steps", "64"]
        code = run(command, path, "--out", tmp_path, *extra)
        assert code == (3 if (command, name) == ("verify", "t3_alpha2") else 0)
        assert len(root_solves) <= 3, [p.degree for p in root_solves]

    @pytest.mark.parametrize("name", list(FROZEN))
    def test_outputs_match_frozen_documents(self, name, tmp_path):
        if name.startswith("rect_"):
            path = _solved_poly_file(tmp_path, f"{name}.json")
        else:
            path = FIXTURES / f"{name}.json"
        commands = FROZEN[name]
        if "verify" in commands:
            assert run("verify", path, "--out", tmp_path, "--resolution", "256") == 0
        assert run("trace", path, "--out", tmp_path, "--steps", "128") == 0
        outputs = {"verify": "report.json", "trace": "trace.json"}
        for command in commands:
            doc = json.loads((tmp_path / outputs[command]).read_text())
            assert doc.pop("manifest")["subcommand"] == command
            expected = json.loads((GOLDEN / f"{command}_{name}.json").read_text())
            assert doc == expected, (command, name)

    @pytest.mark.parametrize("name", ["t4_alpha2", "cross_alpha1"])
    def test_crossing_pairing_does_not_depend_on_seed(self, name, tmp_path):
        # the arc ends through an interior crossing pair up one way for every
        # seed; only a double zero at the origin may print as 0 or 2e-44
        rows = []
        for seed in range(4):
            out = tmp_path / str(seed)
            assert run("trace", FIXTURES / f"{name}.json", "--out", out,
                       "--steps", "128", "--seed", seed) == 0
            rows.append([line.split(",") for line in
                         (out / "arcs.csv").read_text().splitlines()[1:]])
        for other in rows[1:]:
            assert len(other) == len(rows[0])
            for (aid, theta, re, im), (aid2, theta2, re2, im2) in zip(rows[0], other):
                assert (aid, theta) == (aid2, theta2)
                assert abs(complex(float(re), float(im)) - complex(float(re2), float(im2))) < 1e-12


class TestEnumerateCommand:
    def test_three_points_even_degree(self, capsys):
        assert run("enumerate", 3, 6) == 0
        out = capsys.readouterr().out
        assert "4 admissible" in out
        assert out.count("alpha:") == 4

    def test_three_points_odd_degree(self, capsys):
        assert run("enumerate", 3, 7) == 0
        assert "4 admissible" in capsys.readouterr().out

    def test_rectangle_system_listed(self, capsys):
        assert run("enumerate", 4, 5) == 0
        out = capsys.readouterr().out
        assert "1 admissible" in out
        assert "alpha: + + - -" in out

    def test_invalid_exits_2(self, capsys):
        assert run("enumerate", 2, 5) == 2
