"""CLI: exit codes, JSON payloads, determinism."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import fuchsian.cli
import fuchsian.dimension
import fuchsian.frobenius
from fuchsian import sampling
from fuchsian.cli import main
from fuchsian.dimension import quadratic_constraints
from fuchsian.model import (
    MAX_DIGITS,
    MAX_POINTS,
    FuchsianInstance,
    instance_from_json_obj,
    instance_to_json_obj,
)
from fuchsian.sampling import random_instance
from fuchsian.scalars import ONE, ZERO, GaussianRational


EXAMPLE_A = FuchsianInstance([(0, (0, -3)), (1, (0, 1))], (1, 2))
N2N1_BAD = FuchsianInstance([(0, (0, 1)), (1, (0, 1))], (-1, -1), [(2, 3)])
N2N1_GOOD = N2N1_BAD.with_momenta([GaussianRational(1)])
UNDER3 = FuchsianInstance([(0, (0, 1)), (1, (0, 1)), (2, (0, 2))], (-1, -1))


def _write_instance(path, instance):
    path.write_text(json.dumps(instance_to_json_obj(instance)), encoding="utf-8")


def test_construct_example_a(tmp_path, capsys):
    src = tmp_path / "a.json"
    _write_instance(src, EXAMPLE_A)
    assert main(["construct", "-i", str(src)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "G": [["-4", "0"], ["4", "0"]],
        "H": [["0", "0"], ["-2", "0"], ["2", "0"]],
    }


def test_construct_verify_round_trip(tmp_path):
    src = tmp_path / "a.json"
    eq_path = tmp_path / "eq.json"
    rep_path = tmp_path / "rep.json"
    _write_instance(src, EXAMPLE_A)
    assert main(["construct", "-i", str(src), "-o", str(eq_path)]) == 0
    assert main(["verify", "-i", str(src), "-e", str(eq_path), "-o", str(rep_path)]) == 0
    report = json.loads(rep_path.read_text(encoding="utf-8"))
    assert report["overall"] is True


def test_verify_tampered_exits_3(tmp_path):
    src = tmp_path / "a.json"
    eq_path = tmp_path / "eq.json"
    _write_instance(src, EXAMPLE_A)
    main(["construct", "-i", str(src), "-o", str(eq_path)])
    payload = json.loads(eq_path.read_text(encoding="utf-8"))
    payload["H"][0] = ["1", "0"]
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", "-i", str(src), "-e", str(bad_path)]) == 3


def test_fuchs_violation_exits_2(tmp_path):
    bad = FuchsianInstance([(0, (0, -3)), (1, (0, 1))], (1, 1))
    src = tmp_path / "bad.json"
    _write_instance(src, bad)
    assert main(["construct", "-i", str(src)]) == 2


def test_over_case_routing(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good = tmp_path / "good.json"
    _write_instance(bad, N2N1_BAD)
    _write_instance(good, N2N1_GOOD)
    assert main(["construct", "-i", str(bad)]) == 2
    assert main(["construct", "-i", str(good)]) == 0
    capsys.readouterr()


def test_under_case_defaults_to_zero_free_values(tmp_path, capsys):
    src = tmp_path / "under.json"
    _write_instance(src, UNDER3)
    assert main(["construct", "-i", str(src)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["H"][3] == ["0", "0"]  # pinned free coefficient


def test_analyze_payload(tmp_path, capsys):
    src = tmp_path / "over.json"
    _write_instance(src, N2N1_BAD)
    assert main(["analyze", "-i", str(src)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "over"
    assert payload["constraint_count"] == 1
    assert payload["total_dimension"] == 0


def test_constraints_payload(tmp_path, capsys):
    src = tmp_path / "over.json"
    _write_instance(src, N2N1_BAD)
    assert main(["constraints", "-i", str(src)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constraints"][0]["quad"] == {"1": ["-8", "0"]}
    assert payload["float_roots"][0]["j"] == 1


def test_constraints_of_several_momenta_have_no_float_roots(tmp_path, capsys):
    # both constraints of this n = 2, N = 2 instance involve p_1 and p_2, so
    # neither is a scalar quadratic with roots to report
    inst = random_instance(2, 2, seed=0)
    constraints = quadratic_constraints(inst)
    assert [sorted(set(c.quad) | set(c.lin)) for c in constraints] == [[1, 2], [1, 2]]
    src = tmp_path / "over.json"
    _write_instance(src, inst)
    assert main(["constraints", "-i", str(src)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["float_roots"] == []
    assert payload["constraints"] == [c.to_json_obj() for c in constraints]
    assert [c.float_roots() for c in constraints] == [None, None]


def _reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def _norm(value):
    return value.re * value.re + value.im * value.im


@pytest.mark.parametrize(
    "q", [10**54, 10**77, Fraction(1, 10**200)], ids=["1e54", "1e77", "1e-200"]
)
def test_constraints_float_roots_at_extreme_positions(tmp_path, capsys, q):
    # In-cap positions whose constraint coefficients overflow a float (or,
    # at 1/10^200, whose leading one underflows): the roots are found on the
    # coefficients scaled by a power of two, and stay JSON.
    inst = FuchsianInstance([(0, (0, 1)), (1, (0, 1))], (1, -3), [(q, 1)])
    src = tmp_path / "over.json"
    _write_instance(src, inst)
    assert main(["constraints", "-i", str(src)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out, parse_constant=_reject_constant)
    ((c,), (entry,)) = quadratic_constraints(inst), payload["float_roots"]
    assert entry["j"] == 1 and len(entry["roots"]) == 2
    for re, im in entry["roots"]:
        # each root leaves a relative residual of rounding size, read exactly
        p = GaussianRational(Fraction(re), Fraction(im))
        terms = [c.quad[1] * p * p, c.lin.get(1, ZERO) * p, c.const_term]
        assert _norm(sum(terms, ZERO)) < Fraction(1, 10**20) * max(map(_norm, terms))


def test_constraints_text_without_linear_term(tmp_path, capsys):
    inst = FuchsianInstance(
        [(-1, (0, Fraction(1, 2))), (1, (0, Fraction(1, 2)))], (0, -1), [(0, 1)]
    )
    src = tmp_path / "over.json"
    _write_instance(src, inst)
    assert main(["constraints", "-i", str(src), "--format", "text"]) == 0
    assert capsys.readouterr().out == "constraint 1: (-2)*p_1^2 + (0) = 0\n"


def test_constraints_requires_over_case(tmp_path):
    src = tmp_path / "a.json"
    _write_instance(src, EXAMPLE_A)
    assert main(["constraints", "-i", str(src)]) == 1


def test_det_check(tmp_path, capsys):
    assert main(["det-check", "--n", "3", "--trials", "3", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ratio_constant"] is True
    assert payload["nonzero"] is True
    assert len(payload["results"]) == 3
    assert main(["det-check", "--n", "1"]) == 1


def test_construct_exits_3_when_its_equation_fails_verification(tmp_path, monkeypatch, capsys):
    # solve_under verifies what it builds; a failed verdict is VerificationFailed
    src = tmp_path / "under.json"
    _write_instance(src, UNDER3)
    failed = fuchsian.frobenius.VerificationReport(
        finite=(), apparent=(), infinity=None, overall=False
    )
    monkeypatch.setattr(fuchsian.dimension, "verify", lambda eq: failed)
    assert main(["construct", "-i", str(src)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("fuchsian: verification failed:")
    assert captured.out == ""


def test_det_check_exits_3_on_a_zero_or_varying_ratio(monkeypatch, capsys):
    # a zero determinant keeps the ratio constant (0) and fails nonzero; a
    # determinant that changes from trial to trial fails ratio_constant
    monkeypatch.setattr(fuchsian.cli, "det", lambda matrix: ZERO)
    assert main(["det-check", "--n", "3", "--trials", "2"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert (payload["nonzero"], payload["ratio_constant"]) == (False, True)
    values = iter(GaussianRational(k) for k in range(1, 10))
    monkeypatch.setattr(fuchsian.cli, "det", lambda matrix: next(values))
    monkeypatch.setattr(fuchsian.cli, "_node_product", lambda instance: ONE)
    assert main(["det-check", "--n", "3", "--trials", "2"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert (payload["nonzero"], payload["ratio_constant"]) == (True, False)
    assert [r["ratio"] for r in payload["results"]] == [["1", "0"], ["2", "0"]]


def test_det_check_rejects_fewer_than_one_trial(capsys):
    for trials in ("0", "-3"):
        assert main(["det-check", "--n", "3", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fuchsian: det-check requires --trials >= 1\n"


def test_gen_deterministic_and_constructible(tmp_path, capsys):
    assert main(["gen", "--n", "3", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "3", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    src = tmp_path / "gen.json"
    src.write_text(first, encoding="utf-8")
    instance = instance_from_json_obj(json.loads(first))
    assert instance.n == 3
    assert main(["construct", "-i", str(src), "-o", str(tmp_path / "eq.json")]) == 0


def test_gen_rejects_small_n(capsys):
    assert main(["gen", "--n", "1"]) == 1
    assert capsys.readouterr() == ("", "fuchsian: need n >= 2, got 1\n")


def test_gen_rejects_more_points_than_the_pool(capsys):
    # 121 distinct rationals in [-10, 10] with denominators 1..4
    assert len(random_instance(61, 60).finite_points) == 61
    with pytest.raises(ValueError, match="n \\+ N <= 121"):
        random_instance(60, 62)
    with pytest.raises(ValueError, match="need N >= 0, got -1"):
        random_instance(3, -1)
    assert main(["gen", "--n", "62"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n + N <= 121" in captured.err and "got 122" in captured.err


def test_construct_output_byte_stable(tmp_path):
    src = tmp_path / "a.json"
    _write_instance(src, EXAMPLE_A)
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    assert main(["construct", "-i", str(src), "-o", str(out1)]) == 0
    assert main(["construct", "-i", str(src), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_malformed_inputs(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["construct", "-i", str(missing)]) == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert main(["construct", "-i", str(garbled)]) == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"finite_points": "nope"}), encoding="utf-8")
    assert main(["construct", "-i", str(wrong)]) == 1
    assert main(["construct"]) == 1  # --input required
    src = tmp_path / "a.json"
    _write_instance(src, EXAMPLE_A)
    assert main(["verify", "-i", str(src)]) == 1  # --equation required
    assert main(["bogus-subcommand"]) == 1


def test_unwritable_output_is_a_write_error(tmp_path, capsys):
    # -o naming a directory fails at the output, and says so; an unreadable
    # input is still reported as such
    src = tmp_path / "a.json"
    _write_instance(src, EXAMPLE_A)
    for argv in (["gen", "--n", "3"], ["construct", "-i", str(src)]):
        assert main(argv + ["-o", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fuchsian: cannot write output: [Errno")
        assert captured.err.count("\n") == 1
    assert main(["construct", "-i", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("fuchsian: cannot read input: [Errno")


def test_deeply_nested_json_is_unreadable_input(tmp_path, capsys):
    # Nesting past the parser's stack, bytes that are not UTF-8, and an
    # integer longer than int() converts are reported like any unreadable
    # file, not as a bare codec or conversion error or a RecursionError
    # traceback.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe" + "[]".encode("utf-16-le"))
    long_int = tmp_path / "long_int.json"
    long_int.write_text("[" + "7" * 5000 + "]", encoding="utf-8")
    src = tmp_path / "a.json"
    _write_instance(src, EXAMPLE_A)
    for argv in (
        ["analyze", "-i", str(deep)],
        ["verify", "-i", str(src), "-e", str(deep)],
        ["analyze", "-i", str(not_utf8)],
        ["analyze", "-i", str(long_int)],
        ["verify", "-i", str(src), "-e", str(long_int)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("fuchsian: cannot read input: ") and "Traceback" not in err
        assert err.count("\n") == 1


def test_malformed_equation_is_one_diagnostic_line(tmp_path, capsys):
    src, equation = tmp_path / "a.json", tmp_path / "eq.json"
    _write_instance(src, EXAMPLE_A)
    equation.write_text(json.dumps({"G": [["-4", "0"], ["4", "0"]]}), encoding="utf-8")
    assert main(["verify", "-i", str(src), "-e", str(equation)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("fuchsian: invalid instance: malformed equation JSON")
    assert err.count("\n") == 1


def test_text_format(tmp_path, capsys):
    src = tmp_path / "a.json"
    _write_instance(src, EXAMPLE_A)
    assert main(["construct", "-i", str(src), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("G = ")
    eq_path = tmp_path / "eq.json"
    main(["construct", "-i", str(src), "-o", str(eq_path)])
    assert main(["verify", "-i", str(src), "-e", str(eq_path), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_invalid_instance_structure(tmp_path, capsys):
    # an instance with two finite points at 0 cannot be built, so it is
    # written by hand; every input command, verify without --equation
    # included, refuses it while parsing
    point = {"t": ["0", "0"], "exponents": [["0", "0"], ["1", "0"]]}
    src = tmp_path / "dup.json"
    src.write_text(
        json.dumps({"finite_points": [point, point], "infinity_exponents": [["0", "0"]] * 2}),
        encoding="utf-8",
    )
    for command in ("construct", "verify", "analyze", "constraints"):
        assert main([command, "-i", str(src)]) == 1
        assert capsys.readouterr() == (
            "",
            "fuchsian: invalid instance: duplicate-t: finite points 0 and 1 coincide at 0\n",
        )


def test_generated_round_trips_exit_zero(tmp_path):
    # construct output fed back to verify succeeds for every generated instance
    for n, seed in ((2, 1), (3, 2), (4, 3), (5, 4)):
        inst = tmp_path / f"i{n}_{seed}.json"
        eq = tmp_path / f"e{n}_{seed}.json"
        assert main(["gen", "--n", str(n), "--seed", str(seed), "-o", str(inst)]) == 0
        assert main(["construct", "-i", str(inst), "-o", str(eq)]) == 0
        assert main(["verify", "-i", str(inst), "-e", str(eq), "-o", str(tmp_path / "r.json")]) == 0


def test_gen_requires_n():
    assert main(["gen"]) == 1
    assert main(["det-check"]) == 1


def test_flags_belong_to_their_subcommands(tmp_path):
    src = tmp_path / "a.json"
    _write_instance(src, EXAMPLE_A)
    over = tmp_path / "over.json"
    _write_instance(over, N2N1_BAD)
    for misplaced in (["--trials", "99"], ["--tolerance", "5"], ["--n", "7"], ["-e", str(src)]):
        assert main(["construct", "-i", str(src), *misplaced]) == 1, misplaced
    assert main(["analyze", "-i", str(src), "--seed", "3"]) == 1
    assert main(["gen", "--n", "3", "--trials", "2"]) == 1
    assert main(["det-check", "--n", "3", "-i", str(src)]) == 1
    out = tmp_path / "c.json"
    assert main(["constraints", "-i", str(over), "--tolerance", "1e-6", "-o", str(out)]) == 1


def test_verification_failure_exits_3_under_optimize(tmp_path):
    # The checks behind exit 3 are exceptions, not asserts, so they hold
    # under python -O.  verify is patched to fail in the under and over paths.
    under = tmp_path / "under.json"
    good = tmp_path / "good.json"
    _write_instance(under, UNDER3)
    _write_instance(good, N2N1_GOOD)
    script = textwrap.dedent(
        f"""
        import sys
        import fuchsian.dimension
        from fuchsian.cli import main

        class Failing:
            overall = False

        if not sys.flags.optimize:
            sys.exit("asserts are live; this check needs python -O")
        fuchsian.dimension.verify = lambda eq: Failing()
        codes = [main(["construct", "-i", path]) for path in ({str(under)!r}, {str(good)!r})]
        sys.exit(0 if codes == [3, 3] else 1)
        """
    )
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("fuchsian: verification failed") == 2


def test_oversized_rational_gives_short_diagnostic(tmp_path, capsys):
    obj = instance_to_json_obj(EXAMPLE_A)
    obj["finite_points"][0]["exponents"][1][0] = "1" * 5000
    src = tmp_path / "big.json"
    src.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["construct", "-i", str(src)]) == 1
    err = capsys.readouterr().err
    assert "over the cap MAX_DIGITS" in err and len(err) < 200, err


def _capped_instance_obj(points: int) -> dict:
    """Instance JSON with n = 2 and N = points - 2 at the integers 0 .. points - 1."""
    finite = [(k, (0, 0)) for k in range(2)]
    apparent = [(k, 0) for k in range(2, points)]
    return instance_to_json_obj(FuchsianInstance(finite, (0, 1), apparent))


def _analyze(tmp_path, obj) -> int:
    src = tmp_path / "capped.json"
    src.write_text(json.dumps(obj), encoding="utf-8")
    return main(["analyze", "-i", str(src)])


def test_point_cap_is_checked_before_parsing(tmp_path, capsys, monkeypatch):
    assert _analyze(tmp_path, _capped_instance_obj(MAX_POINTS)) == 0
    assert json.loads(capsys.readouterr().out)["N"] == MAX_POINTS - 2

    def refuse(*args):
        raise AssertionError("a coordinate was parsed")

    monkeypatch.setattr(GaussianRational, "from_pair", refuse)
    assert _analyze(tmp_path, _capped_instance_obj(MAX_POINTS + 1)) == 1
    err = capsys.readouterr().err
    assert f"n + N = {MAX_POINTS + 1}, over the cap MAX_POINTS = {MAX_POINTS}" in err, err


def test_point_cap_admits_every_generated_instance(tmp_path):
    # gen draws n + N distinct positions from a pool of 121
    assert MAX_POINTS >= len(sampling._POOL) == 121
    out = tmp_path / "gen.json"
    assert main(["gen", "--n", "61", "-o", str(out)]) == 0  # n + N = 120
    assert main(["analyze", "-i", str(out)]) == 0


@pytest.mark.parametrize(
    "coordinate, accepted",
    [
        ("1" * MAX_DIGITS, True),
        ("-" + "1" * (MAX_DIGITS - 300) + "/" + "7" * 300, True),
        ("1" * (MAX_DIGITS + 1), False),
        ("+" + "1" * (MAX_DIGITS - 299) + "/" + "7" * 300, False),
    ],
    ids=["at-cap", "at-cap-fraction", "over-cap", "over-cap-fraction"],
)
def test_digit_cap_per_coordinate(tmp_path, capsys, coordinate, accepted):
    obj = _capped_instance_obj(3)
    obj["apparent"][0]["p"][1] = coordinate
    assert _analyze(tmp_path, obj) == (0 if accepted else 1)
    err = capsys.readouterr().err
    assert ("over the cap MAX_DIGITS" in err) != accepted, err


def test_4000_digit_coordinate_is_refused_before_parsing(tmp_path, capsys, monkeypatch):
    # 4000 digits is under the int conversion limit, so only the cap stops it
    def refuse(*args):
        raise AssertionError("a coordinate was parsed")

    monkeypatch.setattr(GaussianRational, "from_pair", refuse)
    obj = _capped_instance_obj(3)
    obj["finite_points"][0]["t"][0] = "7" * 4000
    assert _analyze(tmp_path, obj) == 1
    err = capsys.readouterr().err
    assert f"a coordinate has 4000 digits, over the cap MAX_DIGITS = {MAX_DIGITS}" in err, err
    assert len(err) < 200


def test_2000_coefficient_equation_is_refused_before_parsing(tmp_path, capsys, monkeypatch):
    # an 8 MB equation file for an n = 3 instance: "G" may hold 3 coefficients
    src, equation = tmp_path / "instance.json", tmp_path / "equation.json"
    src.write_text(json.dumps(_capped_instance_obj(3)), encoding="utf-8")
    equation.write_text(json.dumps({"G": [["7" * 4000, "0"]] * 2000, "H": []}), encoding="utf-8")
    parse = GaussianRational.from_pair

    def guarded(obj):
        if len(obj[0]) > 10:
            raise AssertionError("an equation coefficient was parsed")
        return parse(obj)

    monkeypatch.setattr(GaussianRational, "from_pair", guarded)
    assert main(["verify", "-i", str(src), "-e", str(equation)]) == 1
    err = capsys.readouterr().err
    assert '"G" has 2000 coefficients, over its full length 3' in err, err
    assert len(err) < 200
