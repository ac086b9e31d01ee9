import importlib.resources
import json

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from g2fmethod import cli


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def validate(payload: dict, schema_name: str):
    ref = importlib.resources.files("g2fmethod") / "schemas" / f"{schema_name}.schema.json"
    schema = json.loads(ref.read_text())
    jsonschema.validate(payload, schema)


def test_algebra_text(capsys):
    code, out = run(capsys, ["algebra", "--n", "3"])
    assert code == 0
    assert "dim 21, positive roots 9, Jacobi OK" in out
    assert "checksum" in out


def test_algebra_so5(capsys):
    code, out = run(capsys, ["algebra", "--n", "2"])
    assert code == 0
    assert "dim 10" in out


def test_algebra_json_schema(capsys):
    code, out = run(capsys, ["algebra", "--n", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "algebra")
    assert payload["dimension"] == 21


def test_embedding_verify(capsys):
    code, out = run(capsys, ["embedding", "verify"])
    assert code == 0
    assert "image dim 14" in out
    assert "lattice matches (20 arrows)" in out


def test_embedding_verify_json(capsys):
    code, out = run(capsys, ["embedding", "verify", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "embedding")
    assert payload["image_dimension"] == 14
    assert payload["lattice_matches"] is True


def test_embedding_lattice_dot(capsys):
    code, out = run(capsys, ["embedding", "lattice", "--format", "dot"])
    assert code == 0
    assert out.count("->") == 20


def test_embedding_lattice_json(capsys):
    code, out = run(capsys, ["embedding", "lattice", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "lattice")
    assert len(payload["arrows"]) == 20


def test_embedding_project(capsys):
    code, out = run(capsys, ["embedding", "project", "--weight", "eps1"])
    assert code == 0
    assert out.strip() == "psi1"
    code, out = run(capsys, ["embedding", "project", "--weight", "omega2"])
    assert out.strip() == "psi2"
    code, out = run(capsys, ["embedding", "project", "--weight", "omega3"])
    assert out.strip() == "psi1"


def test_embedding_project_json(capsys):
    code, out = run(capsys, ["embedding", "project", "--weight", "eps1", "--format", "json"])
    validate(json.loads(out), "weight")


def test_embedding_inject(capsys):
    code, out = run(capsys, ["embedding", "inject", "--weight", "alpha2"])
    assert code == 0
    assert out.strip() == "3*eps2 - 3*eps3"
    code, out = run(capsys, ["embedding", "inject", "--weight", "alpha1"])
    assert out.strip() == "eps1 - eps2 + 2*eps3"


def test_parabolic_text_and_json(capsys):
    code, out = run(capsys, ["parabolic", "--mask", "1,0,0"])
    assert code == 0
    assert "opposite:   -1, -4, -6, -8, -9" in out
    code, out = run(capsys, ["parabolic", "--mask", "1,0", "--algebra", "g2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "parabolic")
    assert payload["nilradical"] == ["1", "3", "4", "5", "6"]


def test_hilbert_column(capsys):
    code, out = run(capsys, ["hilbert", "--max-degree", "2", "--t", "0"])
    assert code == 0
    assert "b(0,0) = 1" in out
    assert "b(1,0) = 1" in out
    assert "b(2,0) = 2" in out
    assert "MATCH" in out


def test_hilbert_degree_zero(capsys):
    code, out = run(capsys, ["hilbert", "--max-degree", "0"])
    assert code == 0
    assert "b(0,0) = 1" in out
    code, out = run(capsys, ["hilbert", "--max-degree", "0", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "hilbert")
    assert payload["max_degree"] == 0
    assert payload["entries"] == [{"l": 0, "t": 0, "b": 1}]


def test_hilbert_json(capsys):
    code, out = run(capsys, ["hilbert", "--max-degree", "4", "--format", "json"])
    payload = json.loads(out)
    validate(payload, "hilbert")
    assert payload["series_match"] is True


def test_singular_even(capsys):
    code, out = run(capsys, ["singular", "--homogeneity", "4"])
    assert code == 0
    assert "lambda = -1/2" in out
    assert "coefficients: 1, 8, 16" in out


def test_singular_even_json(capsys):
    code, out = run(capsys, ["singular", "--homogeneity", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "certificate")
    assert payload["lambda"] == "-1/2"
    assert payload["coefficients"] == ["1", "8", "16"]
    assert all(payload["checks"][k] for k in (
        "p_prime_singular", "so7_singular", "nonstandard_so7", "nonstandard_g2"))


def test_singular_odd_no_result(capsys):
    code, out = run(capsys, ["singular", "--homogeneity", "3"])
    assert code == 1
    assert "no singular vector of homogeneity 3" in out


def test_singular_odd_json(capsys):
    code, out = run(capsys, ["singular", "--homogeneity", "5", "--format", "json"])
    assert code == 1
    validate(json.loads(out), "odd")


def test_singular_scan(capsys):
    code, out = run(capsys, ["singular", "--scan", "--max-degree", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "homogeneity 1: none"
    assert lines[1] == "homogeneity 2: -3/2"
    assert lines[3] == "homogeneity 4: -1/2"
    assert lines[5] == "homogeneity 6: 1/2"
    assert lines[7] == "homogeneity 8: 3/2"


def test_singular_scan_json(capsys):
    code, out = run(capsys, ["singular", "--scan", "--max-degree", "4", "--format", "json"])
    validate(json.loads(out), "scan")


def test_show_operator(capsys):
    code, out = run(capsys, ["singular", "--show-operator"])
    assert code == 0
    assert "(L)*d1" in out
    code, latex = run(capsys, ["singular", "--show-operator", "--format", "latex"])
    assert r"\partial_1" in latex


def test_oracle(capsys):
    code, out = run(capsys, ["oracle", "--degree", "2", "--lambda=-3/2"])
    assert code == 0
    assert "kernel dimension 1" in out
    assert "4*g_-1*g_-9*v + 4*g_-8*g_-4*v + g_-6^2*v" in out


def test_oracle_empty_is_exit_one(capsys):
    code, out = run(capsys, ["oracle", "--degree", "2", "--lambda=0"])
    assert code == 1
    assert "kernel dimension 0" in out


def test_oracle_negative_degree_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--degree", "-1", "--lambda=1/2"])
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "degree must be non-negative\n")


def test_oracle_json(capsys):
    code, out = run(capsys, ["oracle", "--degree", "2", "--lambda=-3/2", "--format", "json"])
    payload = json.loads(out)
    validate(payload, "oracle")
    assert payload["dimension"] == 1


def test_deterministic_output(capsys):
    a = run(capsys, ["singular", "--homogeneity", "2", "--format", "json"])[1]
    b = run(capsys, ["singular", "--homogeneity", "2", "--format", "json"])[1]
    assert a == b
    c = run(capsys, ["embedding", "lattice"])[1]
    d = run(capsys, ["embedding", "lattice"])[1]
    assert c == d


def test_out_file(tmp_path, capsys):
    target = tmp_path / "lattice.dot"
    code, out = run(capsys, ["embedding", "lattice", "--format", "dot", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().count("->") == 20


def test_out_path_that_cannot_be_written_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("computed before --out was refused")

    for name in ("solve_even", "embed_g2"):
        monkeypatch.setattr(cli, name, work)
    (tmp_path / "file").write_text("kept")
    for target, message in ((tmp_path / "missing" / "x", "No such file or directory"),
                            (tmp_path / "file" / "x", "Not a directory")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["singular", "--homogeneity", "600", "--out", str(target)])
        assert exc.value.code == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"cannot write {target}: {message}\n")
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "file").read_text() == "kept"
    with pytest.raises(SystemExit) as exc:
        cli.main(["embedding", "lattice", "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"cannot write {tmp_path}: Is a directory\n")


def test_out_file_is_left_intact_when_the_request_is_refused(tmp_path, capsys):
    target = tmp_path / "f"
    target.write_text("kept")
    with pytest.raises(SystemExit) as exc:
        cli.main(["singular", "--homogeneity", "3", "--format", "latex", "--out", str(target)])
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "no latex form for this command\n")
    assert target.read_text() == "kept"


def _no_hilbert_multiplicity(l, t):
    return 0


def _unreadable_difference():
    raise ValueError("difference unreadable")


@pytest.mark.parametrize("name, replacement, failed, message", [
    ("hilbert_multiplicity", _no_hilbert_multiplicity, "hilbert", "b(0,0) is not 1"),
    ("symbolic_so7_difference", _unreadable_difference, "weights", "ValueError: difference unreadable"),
])
def test_verify_reports_a_failed_suite_and_runs_the_rest(capsys, monkeypatch, ctx, name, replacement,
                                                         failed, message):
    monkeypatch.setattr(cli, "SolverContext", lambda: ctx)
    monkeypatch.setattr(f"g2fmethod.suites.{name}", replacement)
    code = cli.main(["verify"])
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
    lines = out.splitlines()
    assert lines[-1] == "FAILURES present"
    fails = [l for l in lines if l.startswith("FAIL ")]
    assert len(fails) == 1 and fails[0].startswith(f"FAIL  {failed:<10} {message} (")
    assert sum(l.startswith("PASS ") for l in lines) == 7

    code = cli.main(["verify", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert [(r["name"], r["detail"]) for r in payload["suites"] if not r["passed"]] == [(failed, message)]
    assert sum(r["passed"] for r in payload["suites"]) == 7


_weight_texts = st.one_of(
    st.text(max_size=30),
    st.lists(
        st.tuples(
            st.sampled_from(["", "+", "-", " - ", "+ "]),
            st.sampled_from(["", "0", "2", "2*", "1/2", "3/4 * ", "1/0*"]),
            st.sampled_from(sorted(cli._WEIGHT_NAMES) + ["zeta1", "eps4"]),
        ),
        min_size=1,
        max_size=4,
    ).map(lambda terms: " ".join("".join(t) for t in terms)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_weight_texts)
def test_parse_weight_round_trips_or_refuses(text):
    try:
        w = cli.parse_weight(text)
    except ValueError:
        return
    if all(c == 0 for c in w.coords):
        # the zero weight prints as "0", which names neither coordinate
        # family, so it cannot be read back
        assert str(w) == "0"
    else:
        assert cli.parse_weight(str(w)) == w


def test_weight_parse_errors(capsys):
    with pytest.raises(ValueError):
        cli.parse_weight("eps1 + alpha1")
    with pytest.raises(ValueError):
        cli.parse_weight("zeta1")
    for text in ("eps1?eps2", "eps1 + eps2;", "2.5*eps1", "2 2 eps1", "eps1*2", "eps1 eps2",
                 "2*alpha1*alpha2", "**eps1", "eps1+", "1/0*eps1", "- -eps1", "eps1 + + eps2", ""):
        with pytest.raises(ValueError):
            cli.parse_weight(text)


def test_weight_terms_read_as_written():
    assert str(cli.parse_weight("-1/2*eps1 + 2 eps2 - eps3")) == "-1/2*eps1 + 2*eps2 - eps3"
    assert str(cli.parse_weight(" +3*alpha1-alpha2 ")) == "3*alpha1 - alpha2"


@pytest.mark.parametrize("action", ["project", "inject"])
def test_embedding_rejects_unparsed_weight(capsys, action):
    with pytest.raises(SystemExit) as exc:
        cli.main(["embedding", action, "--weight", "eps1?eps2"])
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "cannot parse weight 'eps1?eps2'\n")


@pytest.mark.parametrize("argv, message", [
    (["embedding", "project"], "embedding project requires --weight"),
    (["embedding", "inject"], "embedding inject requires --weight"),
    (["parabolic", "--algebra", "so7", "--mask", "1,x"], "cannot parse mask '1,x'"),
    (["parabolic", "--algebra", "g2", "--mask", "1,0,0"], "mask must be 2 entries of 0/1"),
    (["oracle", "--degree", "2", "--lambda=1/0"], "zero denominator: '1/0'"),
    (["oracle", "--degree", "2", "--lambda=x"], "not a rational: 'x'"),
    (["algebra", "--n", "1"], "rank must be at least 2"),
    (["hilbert", "--max-degree", "-2"], "max-degree must be non-negative"),
    (["hilbert", "--max-degree", "3", "--t", "-1"], "t must be non-negative"),
    (["singular", "--scan", "--max-degree", "-3"], "max-degree must be positive"),
    (["singular", "--homogeneity", "3", "--format", "latex"], "no latex form for this command"),
    (["singular", "--scan", "--max-degree", "4", "--format", "latex"], "no latex form for this command"),
    (["embedding", "verify", "--format", "dot"], "no dot form for this command"),
    (["singular", "--scan", "--max-degree", "0"], "max-degree must be positive"),
    (["singular", "--homogeneity", "4", "--max-degree", "3"], "--max-degree is only for --scan"),
    (["singular", "--show-operator", "--max-degree", "3"], "--max-degree is only for --scan"),
    (["embedding", "lattice", "--weight", "eps1"], "embedding lattice takes no --weight"),
    (["embedding", "verify", "--weight", "eps1"], "embedding verify takes no --weight"),
])
def test_bad_input_is_a_one_line_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"{message}\n")


@pytest.fixture
def no_work(monkeypatch):
    """Every entry into the engine that the CLI makes raises."""
    def work(*args, **kwargs):
        raise AssertionError("computed before the request was refused")

    for name in ("SolverContext", "solve_odd", "solve_even", "embed_g2", "inclusion_lattice"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr("g2fmethod.embedding.project_weight", work)


@pytest.mark.parametrize("argv", [
    ["singular", "--homogeneity", "301", "--format", "latex"],
    ["singular", "--scan", "--max-degree", "4", "--format", "latex"],
    ["embedding", "verify", "--format", "dot"],
    ["embedding", "project", "--weight", "eps1", "--format", "dot"],
])
def test_a_refused_format_is_refused_before_any_work(capsys, no_work, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    fmt = argv[-1]
    assert capsys.readouterr() == ("", f"no {fmt} form for this command\n")


@pytest.mark.parametrize("argv", [
    ["singular", "--homogeneity", "4", "--scan", "--max-degree", "2"],
    ["singular", "--show-operator", "--homogeneity", "4"],
    ["singular", "--scan", "--show-operator", "--max-degree", "2"],
    ["singular", "--homogeneity", "4", "--max-degree", "3"],
    ["singular", "--show-operator", "--max-degree", "3"],
    ["singular", "--scan", "--max-degree", "0"],
    ["embedding", "lattice", "--weight", "eps1"],
    ["embedding", "verify", "--weight", "eps1"],
])
def test_a_flag_the_mode_would_ignore_is_refused_before_any_work(capsys, no_work, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err


def test_bad_input_exits_usage_with_empty_stdout():
    import subprocess
    import sys

    for argv in (["embedding", "project"], ["parabolic", "--algebra", "so7", "--mask", "1,x"],
                 ["oracle", "--degree", "2", "--lambda=1/0"], ["algebra", "--n", "1"],
                 ["singular", "--scan", "--max-degree", "-3"], ["hilbert", "--max-degree", "3", "--t", "-1"]):
        proc = subprocess.run([sys.executable, "-m", "g2fmethod", *argv], capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_USAGE, argv
        assert proc.stdout == "", argv
        assert len(proc.stderr.strip().splitlines()) == 1, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


@pytest.mark.parametrize("argv", [
    ["singular", "--homogeneity", "abc"],               # not an int
    ["oracle", "--degree", "2"],                         # --lambda missing
    ["oracle", "--degree", "2", "--lambda=1/2", "--format", "xml"],   # unknown choice
])
def test_usage_error_exits_64_with_one_stderr_line(argv):
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "g2fmethod", *argv], capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_USAGE == 64, (argv, proc.returncode)
    assert proc.stdout == "", argv
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "error:" in lines[0], (argv, proc.stderr)


@pytest.mark.parametrize("argv", [
    ["oracle", "--degree", "100000", "--lambda=1/2"],
    ["singular", "--homogeneity", "602"],
    ["singular", "--scan", "--max-degree", "201"],
    ["hilbert", "--max-degree", "41"],
    ["algebra", "--n", "9"],
])
def test_request_over_its_cap_exits_64_with_one_stderr_line(argv):
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "g2fmethod", *argv], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == cli.EXIT_USAGE, (argv, proc.returncode)
    assert proc.stdout == "", argv
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "error:" in lines[0] and "at most" in lines[0], (argv, proc.stderr)


def test_each_cap_itself_is_accepted():
    parser = cli.build_parser()
    caps = cli.CAPS
    assert parser.parse_args(["oracle", "--degree", str(caps["oracle --degree"]), "--lambda=1/2"]).degree == 40
    assert parser.parse_args(["singular", "--homogeneity", "600"]).homogeneity == caps["singular --homogeneity"]
    assert parser.parse_args(["singular", "--scan", "--max-degree", "200"]).max_degree == caps["singular --max-degree"]
    assert parser.parse_args(["hilbert", "--max-degree", "40"]).max_degree == caps["hilbert --max-degree"]
    assert parser.parse_args(["algebra", "--n", "8"]).n == caps["algebra --n"]
