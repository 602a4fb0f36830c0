import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wba.algebra import element_from_json
from wba.cli import main
from wba.diagrams import Shape, all_diagrams
from wba.algebra import AlgebraElement
from wba.scalars import DELTA
from wba.fusion import fusion_idempotent
from wba.tableaux import enumerate_tableaux, parse_tableau
from algebra_helpers import d_gen, s_gen

GOLDEN_SPEC = "L+1,1;L+2,1;L-2,1;L-1,1"
EMPTY_11 = {"r": 1, "s": 1, "terms": []}
LONG = "9" * 5000  # more digits than Python's int() converts from a string
NESTED = "(" * 2000 + "d" + ")" * 2000  # deeper than the recursion limit allows


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_tableaux_count(capsys):
    code, out = run(capsys, "tableaux", "2", "2", "--count")
    assert code == 0 and out.strip() == "10"


@pytest.mark.parametrize("n", range(7))
def test_tableaux_count_is_the_number_of_paths(capsys, n):
    for r in range(n + 1):
        code, out = run(capsys, "tableaux", str(r), str(n - r), "--count")
        assert code == 0
        assert int(out) == len(enumerate_tableaux(Shape(r, n - r)))


@pytest.mark.parametrize(
    "argv",
    [
        ["tableaux", "13", "12", "--count"],
        ["tableaux", "13", "12"],
        ["tableaux", "5", "5"],
        ["bratteli", "11", "10"],
        ["jm", "13", "12", "1"],
        ["verify", "12", "12", "--suite", "exponents"],
        ["verify", "12", "12", "--suite", "lemmas"],
        ["verify", "4", "4", "--suite", "yang-baxter"],
        ["idempotent", "5", "4", "--tableau", "L+1,1"],
    ],
)
def test_oversized_request_is_a_usage_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "TooLarge"


def test_tableaux_listing(capsys):
    code, out = run(capsys, "tableaux", "1", "1")
    obj = json.loads(out)
    assert obj["count"] == 2
    moves = {t["moves"] for t in obj["tableaux"]}
    assert moves == {"L+1,1;L-1,1", "L+1,1;R+1,1"}


def test_idempotent_golden_with_check(capsys):
    code, out = run(
        capsys, "idempotent", "2", "2", "--tableau", GOLDEN_SPEC, "--check"
    )
    assert code == 0
    obj = json.loads(out)
    cert = obj["certification"]
    assert cert["idempotent"] and cert["jm_spectrum"] and cert["iota_fixed"]
    assert all(cert["methods_agree"].values())
    t = parse_tableau(GOLDEN_SPEC, Shape(2, 2))
    assert element_from_json(obj["element"]) == fusion_idempotent(t)


def test_check_of_the_first_method_fuses_once(capsys, monkeypatch):
    import wba.fusion

    calls = []
    fuse = wba.fusion.fusion_idempotent

    def counted(t):
        calls.append(t)
        return fuse(t)

    monkeypatch.setattr(wba.fusion, "fusion_idempotent", counted)
    code, out = run(
        capsys, "idempotent", "2", "2", "--tableau", GOLDEN_SPEC, "--check"
    )
    assert code == 0
    assert json.loads(out)["certification"]["methods_agree"]["first"] is True
    assert len(calls) == 1


def test_idempotent_methods_match(capsys):
    for method in ("first", "second", "interp"):
        code, out = run(
            capsys, "idempotent", "1", "1", "--tableau", "L+1,1;L-1,1",
            "--method", method,
        )
        assert code == 0
        e = element_from_json(json.loads(out)["element"])
        d = AlgebraElement.from_diagram(d_gen(Shape(1, 1)))
        assert e == d.scale(DELTA.inverse())


def test_idempotent_pretty(capsys):
    code, out = run(
        capsys, "idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--pretty"
    )
    assert code == 0
    assert "1/d" in out and "[2, 1]" in out


def test_idempotent_custom_h(capsys):
    code, out = run(
        capsys, "idempotent", "2", "2", "--tableau", GOLDEN_SPEC,
        "--method", "second", "--variant", "mirror", "--h", "5*d+2/3",
    )
    assert code == 0
    t = parse_tableau(GOLDEN_SPEC, Shape(2, 2))
    assert element_from_json(json.loads(out)["element"]) == fusion_idempotent(t)


def test_idempotent_refuses_non_semisimple_delta(capsys):
    code, out = run(
        capsys, "idempotent", "2", "2", "--tableau", GOLDEN_SPEC,
        "--delta-rational", "2",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "WbaError"


def test_idempotent_allows_semisimple_delta(capsys):
    code, out = run(
        capsys, "idempotent", "2", "2", "--tableau", GOLDEN_SPEC,
        "--delta-rational", "1/2",
    )
    assert code == 0


def test_usage_error_exit_code(capsys):
    code, out = run(capsys, "idempotent", "1", "1", "--tableau", "L+9,9;L-1,1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "IllegalMove"


@pytest.mark.parametrize(
    "argv,stdin,error",
    [
        # the first four ids are those pytest gave these rows before the
        # error field existed, so that the test names stay the same
        pytest.param(
            ["mul", "{tmp}/missing.json", "{tmp}/x.json"], None, "ParseError",
            id="argv0-None-env0",
        ),
        pytest.param(["mul"], "not json", "ParseError", id="argv1-not json-env1"),
        pytest.param(
            ["idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--delta-rational", "abc"],
            None, "ParseError",
            id="argv2-None-env2",
        ),
        pytest.param(
            ["verify", "1", "1", "--suite", "system", "--delta-rational", "1/0"], None,
            "ParseError",
            id="argv3-None-env3",
        ),
        pytest.param(
            ["mul"], json.dumps([{"r": "x", "s": 1, "terms": []}, EMPTY_11]), "ParseError",
            id="mul-non-integer-shape",
        ),
        pytest.param(
            ["mul"],
            json.dumps([{"r": 1, "s": 1, "terms": [{"diagram": [1, 2], "coeff": LONG}]}, EMPTY_11]),
            "ParseError",
            id="mul-long-coeff",
        ),
        pytest.param(
            ["idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--method", "second",
             "--h", LONG], None, "ParseError",
            id="idempotent-long-h",
        ),
        pytest.param(
            ["idempotent", "1", "1", "--tableau", "L+1,1;L-1," + LONG], None, "ParseError",
            id="idempotent-long-move",
        ),
        pytest.param(
            ["mul", "-"], json.dumps([{"r": 1.7, "s": True, "terms": []}, EMPTY_11]),
            "ParseError",
            id="mul-float-and-bool-shape",
        ),
        pytest.param(
            ["mul"],
            json.dumps([{"r": 1, "s": 1, "terms": [{"diagram": [2, True], "coeff": "1"}]},
                        EMPTY_11]),
            "ParseError",
            id="mul-bool-in-diagram",
        ),
        pytest.param(
            ["idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--method", "second",
             "--h", NESTED], None, "ParseError",
            id="idempotent-nested-h",
        ),
        pytest.param(
            ["mul"],
            json.dumps([{"r": 1, "s": 1, "terms": [{"diagram": [1, 2], "coeff": NESTED}]},
                        EMPTY_11]),
            "ParseError",
            id="mul-nested-coeff",
        ),
        pytest.param(
            ["mul"], "[" * 100_000 + "]" * 100_000, "ParseError", id="mul-nested-json"
        ),
        pytest.param(
            ["verify", "1", "1", "--suite", "system", "--delta-rational", "d"], None,
            "ParseError",
            id="verify-delta-not-constant",
        ),
        pytest.param(
            ["idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--method", "second",
             "--h", ""], None, "ParseError",
            id="idempotent-empty-h",
        ),
        pytest.param(
            ["verify", "1", "1", "--suite", "nope"], None, "ParseError", id="argparse-choice"
        ),
        # a negative value after a space is read as an option
        pytest.param(["verify", "1", "1", "--delta-rational", "-3/2"], None, "ParseError",
                     id="argparse-negative-value"),
        pytest.param(
            ["idempotent", "1", "1"], None, "ParseError", id="argparse-missing-tableau"
        ),
        pytest.param(["jm", "1", "1", "x"], None, "ParseError", id="argparse-non-integer"),
        # the pretty display would drop the certification block
        pytest.param(
            ["idempotent", "2", "2", "--tableau", GOLDEN_SPEC, "--pretty", "--check"], None,
            "ParseError", id="argparse-pretty-with-check",
        ),
        pytest.param([], None, "ParseError", id="argparse-no-subcommand"),
        pytest.param(["mul", "{tmp}/x.json"], None, "ParseError", id="mul-one-file"),
        pytest.param(["mul"], '{"a": 1}', "ParseError", id="mul-stdin-not-a-pair"),
        pytest.param(
            ["mul", "-"], json.dumps([{"r": 1, "s": 1, "terms": {}}, EMPTY_11]), "ParseError",
            id="mul-terms-an-object",
        ),
        pytest.param(
            ["mul", "-"], json.dumps([{"r": 1, "s": 1, "terms": ""}, EMPTY_11]), "ParseError",
            id="mul-terms-a-string",
        ),
        pytest.param(
            ["mul"],
            json.dumps([{"r": 1, "s": 1, "terms": [{"diagram": [1, 2], "coeff": "1"}] * 2},
                        EMPTY_11]),
            "ParseError",
            id="mul-duplicate-diagram",
        ),
        pytest.param(
            ["jm", "2", "2", "9"], None, "IndexOutOfRange", id="jm-site-out-of-range"
        ),
        pytest.param(
            ["mul"],
            json.dumps([{"r": 1, "s": 1, "terms": [{"diagram": [1, 1], "coeff": "1"}]}, EMPTY_11]),
            "IndexOutOfRange",
            id="mul-diagram-not-a-permutation",
        ),
    ],
)
def test_bad_input_is_a_usage_error(capsys, monkeypatch, tmp_path, argv, stdin, error):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert json.loads(out)["error"]["type"] == error


def test_negative_value_after_equals_sign(capsys):
    code, out = run(capsys, "verify", "1", "1", "--suite", "system", "--delta-rational=-3/2")
    assert code == 0
    assert json.loads(out)["semisimple_at_delta"] is True


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wba verify")


def run_process(*argv, timeout=30):
    """Run wba in a fresh interpreter, killed after timeout seconds."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "wba.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_huge_power_in_h_is_refused_promptly():
    proc = run_process(
        "idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--method", "second",
        "--h", "d^99999999",
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "1", "1", "--suite", "system", "--delta-rational", "1e100000000"],
        ["idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--delta-rational", "1e100000000"],
        ["idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--method", "second",
         "--h", "((" + "9" * 1000 + ")^256)^256"],
        # each factor is within the bounds, their product is not
        ["idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--method", "second",
         "--h", "*".join(["(d+1)^256"] * 32)],
    ],
    ids=["verify-delta-exponent", "idempotent-delta-exponent", "h-power", "h-product"],
)
def test_huge_number_is_refused_promptly(argv):
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["idempotent", "3", "4", "--tableau", "L+1,1;L+1,2;L+1,3;R+1,1;R+1,2;R+1,3;R+1,4",
         "--check"],
        ["verify", "3", "4"],
        ["verify", "2", "5", "--suite", "system"],
        ["verify", "7", "0", "--suite", "lemmas"],
    ],
    ids=["idempotent-check", "verify-all", "verify-system", "verify-lemmas-eight-sites"],
)
def test_certification_above_six_sites_is_refused_promptly(argv):
    # e*e of a 5040-term 7-site idempotent alone takes minutes, and the
    # wall-crossing lemma of (7, 0) runs on the 40 320 diagrams of (7, 1)
    proc = run_process(*argv, timeout=5)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("r,s", [(0, 7), (6, 1)])
def test_lemmas_on_seven_sites_are_accepted(capsys, monkeypatch, r, s):
    # their wall-crossing lemma runs on (r, 1), at most seven sites
    import wba.verify
    from wba.verify import CertReport

    def stub(shape, seed=0, suite="all"):
        return CertReport(shape.r, shape.s)

    monkeypatch.setattr(wba.verify, "full_report", stub)
    code, out = run(capsys, "verify", str(r), str(s), "--suite", "lemmas")
    assert code == 0
    assert (json.loads(out)["r"], json.loads(out)["s"]) == (r, s)


def test_closed_stdout_ends_quietly():
    # the listing is larger than a pipe buffer, so the write meets the
    # closed pipe
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "wba.cli", "tableaux", "4", "4"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_bratteli_dot(capsys):
    code, out = run(capsys, "bratteli", "2", "2", "--format", "dot")
    assert code == 0
    assert out.count("[label=") - out.count("->") == 13  # 13 nodes
    assert '"d+1"' in out and '"d-1"' in out


def test_bratteli_json(capsys):
    code, out = run(capsys, "bratteli", "1", "1", "--format", "json")
    obj = json.loads(out)
    assert [len(level) for level in obj["levels"]] == [1, 1, 2]
    assert len(obj["edges"]) == 3


def test_jm_output(capsys):
    code, out = run(capsys, "jm", "1", "1", "2")
    obj = json.loads(out)
    assert obj == {
        "r": 1,
        "s": 1,
        "terms": [{"diagram": [1, 2], "coeff": "d"}, {"diagram": [2, 1], "coeff": "-1"}],
    }


def test_mul_round_trip(tmp_path, capsys):
    shape = Shape(2, 2)
    a = AlgebraElement.from_diagram(s_gen(shape, 1)) + AlgebraElement.one(shape)
    b = AlgebraElement.from_diagram(d_gen(shape)).scale(DELTA.inverse())
    from wba.algebra import element_to_json

    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(json.dumps(element_to_json(a)))
    fb.write_text(json.dumps(element_to_json(b)))
    code, out = run(capsys, "mul", str(fa), str(fb))
    assert code == 0
    assert element_from_json(json.loads(out)) == a * b


def test_mul_stdin(capsys, monkeypatch):
    import io

    from wba.algebra import element_to_json

    shape = Shape(1, 1)
    d = AlgebraElement.from_diagram(d_gen(shape))
    payload = json.dumps([element_to_json(d), element_to_json(d)])
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out = run(capsys, "mul")
    assert code == 0
    assert element_from_json(json.loads(out)) == d.scale(DELTA)


def test_mul_of_mismatched_shapes_is_a_usage_error(capsys, monkeypatch):
    from wba.algebra import element_to_json

    a, b = (element_to_json(AlgebraElement.one(Shape(r, 1))) for r in (1, 2))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([a, b])))
    code, out = run(capsys, "mul", "-")
    assert code == 2
    assert out == (
        '{\n  "error": {\n    "type": "ShapeMismatch",\n'
        '    "message": "shapes Shape(r=1, s=1) and Shape(r=2, s=1) differ"\n  }\n}\n'
    )


def _timed_run(capsys, *argv):
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    return code, out, time.perf_counter() - start


def test_idempotent_refuses_an_h_over_the_gcd_work_bound(capsys):
    code, out, seconds = _timed_run(
        capsys, "idempotent", "1", "1", "--tableau", "L+1,1;L-1,1", "--method", "second",
        "--h", "((d+1)^256+1)/((d+3)^255+7)",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"
    assert seconds < 1


def _element(r, s, coeffs):
    diagrams = [list(d.img) for d in all_diagrams(Shape(r, s))]
    return {"r": r, "s": s, "terms": [
        {"diagram": d, "coeff": c} for d, c in zip(diagrams, coeffs)
    ]}


@pytest.mark.parametrize(
    "a,b",
    [
        pytest.param(
            _element(1, 1, ["(d+1)^256+1"]), _element(1, 1, ["1/((d+2)^256+1)"]),
            id="one-term-degree-256",
        ),
        pytest.param(
            _element(2, 2, [f"(d+{i})^64+1" for i in range(1, 25)]),
            _element(2, 2, [f"1/((d+{i})^64+1)" for i in range(40, 64)]),
            id="24-terms-degree-64",
        ),
    ],
)
def test_mul_refuses_a_product_over_the_gcd_work_bound(capsys, monkeypatch, a, b):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([a, b])))
    code, out, seconds = _timed_run(capsys, "mul", "-")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "TooLarge"
    assert seconds < 1


def test_mul_work_of_six_site_idempotent_squares_is_far_under_the_bound():
    from wba.scalars import product_work

    for shape in (Shape(4, 2), Shape(1, 5)):
        for t in enumerate_tableaux(shape):
            coeffs = set(fusion_idempotent(t).terms.values())
            assert product_work(coeffs, coeffs) < 5_000


@pytest.mark.parametrize("coeff", [["1", "2"], ["d"], 12, None], ids=str)
def test_mul_refuses_a_coefficient_that_is_not_a_string(capsys, monkeypatch, coeff):
    # a list of strings must not parse as their concatenation, nor a number
    # as its digits
    terms = [
        {"diagram": [1, 2], "coeff": "1"},
        {"diagram": [2, 1], "coeff": coeff},
    ]
    payload = json.dumps([{"r": 1, "s": 1, "terms": terms}, EMPTY_11])
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out = run(capsys, "mul", "-")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ParseError",
        "message": f"coefficient of term 1 is not a string: {json.dumps(coeff)}",
    }


def test_mul_refuses_too_many_term_pairs_promptly(capsys, monkeypatch):
    # 800 x 800 terms of a 7-site shape: 640 000 term pairs, more than the
    # 720 x 720 of the largest 6-site product; the sparse path would take
    # seconds and the full 5040-term square minutes
    import io
    import itertools
    import time

    diagrams = itertools.islice(itertools.permutations(range(1, 8)), 800)
    element = {
        "r": 3,
        "s": 4,
        "terms": [{"diagram": list(img), "coeff": "1"} for img in diagrams],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([element, element])))
    start = time.perf_counter()
    code, out = run(capsys, "mul", "-")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out)["error"]["type"] == "TooLarge"


def test_verify_small_shape(capsys):
    code, out = run(capsys, "verify", "1", "1", "--suite", "system")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and len(obj["tableaux"]) == 2


@pytest.mark.parametrize("r", range(4))
def test_verify_shape_without_right_sites(capsys, r):
    code, out = run(capsys, "verify", str(r), "0")
    assert code == 0
    assert json.loads(out)["ok"]


def test_verify_reports_semisimplicity(capsys):
    code, out = run(
        capsys, "verify", "1", "1", "--suite", "system", "--delta-rational", "3"
    )
    assert code == 0
    assert json.loads(out)["semisimple_at_delta"] is True


def test_output_determinism(capsys):
    _, out1 = run(capsys, "idempotent", "2", "2", "--tableau", GOLDEN_SPEC)
    _, out2 = run(capsys, "idempotent", "2", "2", "--tableau", GOLDEN_SPEC)
    assert out1 == out2
    _, dot1 = run(capsys, "bratteli", "2", "2", "--format", "dot")
    _, dot2 = run(capsys, "bratteli", "2", "2", "--format", "dot")
    assert dot1 == dot2
