import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from bimenger import (
    DualInfeasible,
    InvalidDerivedLink,
    LoopRejected,
    LpSolution,
    NotBalanced,
    UnknownVertex,
    UnmappableEdge,
    VerificationFailure,
    build_graph,
    certify,
    oracle_max_links,
    oracle_min_separator,
    oracle_xpaths,
    ratlp,
    solve_menger,
)
from bimenger import bmcli
from bimenger.bmcli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SEPARATOR_INFINITE,
    EXIT_VERIFY,
    GenParams,
    InstanceFile,
    InstanceSyntaxError,
    InvalidParams,
    derive_seed,
    parse_instance,
    random_instance,
    run_cli,
    run_selfcheck,
    serialize_instance,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    rc = run_cli(list(argv), out, err)
    return rc, out.getvalue(), err.getvalue()


def test_parse_minimal():
    inst = parse_instance("vertex a\nvertex b\nedge a b +-\nset X a\nset Y b\n")
    assert inst.graph.n == 2 and inst.graph.m == 1
    assert inst.X == {"a"} and inst.Y == {"b"}


def test_parse_comments_blank_lines_and_labels():
    text = "# heading\n\nvertex a\nvertex b\nedge a b ++ lbl # trailing\n"
    inst = parse_instance(text)
    assert inst.graph.m == 1


def test_parse_loop_rejected():
    with pytest.raises(LoopRejected):
        parse_instance("vertex a\nedge a a ++\n")


def test_parse_unknown_vertex():
    with pytest.raises(UnknownVertex):
        parse_instance("vertex a\nedge a b ++\n")


def test_parse_bad_directive():
    with pytest.raises(InstanceSyntaxError):
        parse_instance("frobnicate a\n")


def test_parse_bad_signs():
    with pytest.raises(InstanceSyntaxError):
        parse_instance("vertex a\nvertex b\nedge a b xx\n")


@pytest.mark.parametrize("terminal", ["s", "t"])
def test_parse_rejects_a_second_terminal_line(tmp_path, terminal):
    text = "vertex a\nvertex b\nvertex c\nterminal s a\nterminal t b\n"
    with pytest.raises(InstanceSyntaxError, match="line 6"):
        parse_instance(text + f"terminal {terminal} c\n")
    p = tmp_path / "in.bg"
    p.write_text(text + f"terminal {terminal} c\n")
    rc, out, err = cli("solve-st", "--input", str(p))
    assert rc == EXIT_INPUT and out == ""
    assert _one_error_line(err)


def test_serialize_parse_roundtrip():
    for seed in range(5):
        inst = random_instance(GenParams(5, 7, seed, 2, 2, seed % 2 == 0))
        assert parse_instance(serialize_instance(inst)) == inst


def test_generator_deterministic():
    a = serialize_instance(random_instance(GenParams(6, 9, 17, 2, 3)))
    b = serialize_instance(random_instance(GenParams(6, 9, 17, 2, 3)))
    assert a == b


def test_generator_edgeless():
    inst = random_instance(GenParams(2, 0, 1, 1, 1))
    assert inst.graph.m == 0


def test_generator_invalid_params():
    with pytest.raises(InvalidParams):
        random_instance(GenParams(1, 3, 0))
    with pytest.raises(InvalidParams):
        random_instance(GenParams(3, 0, 0, x_size=2, y_size=2))


def test_five_vertex_witness_packs_less_than_its_minimum_separator(tmp_path):
    # the smallest instance known where the maximum link packing (1) is
    # below the minimum separator (2), by the oracles and the solver alike
    rc, text, _ = cli("gen", "--vertices", "5", "--edges", "8", "--seed", "320010314",
                      "--x", "2", "--y", "2")
    assert rc == EXIT_OK
    inst = parse_instance(text)
    g, X, Y = inst.graph, inst.X, inst.Y
    assert oracle_max_links(g, X, Y).value == 1
    assert len(oracle_min_separator(g, X, Y)) == 2
    cert = solve_menger(g, X, Y)
    assert cert.value == 1
    assert cert.checks["separator_from_oracle"] is True
    assert len(cert.separator) == 2
    assert cert.checks["separator_within_value"] is False
    path = tmp_path / "witness.bg"
    path.write_text(text)
    assert cli("solve", "--input", str(path))[0] == EXIT_VERIFY


def test_derive_seed_order_independent():
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(7, 4)


def test_cli_solve_fig1a_json():
    rc, out, err = cli("solve", "--input", str(FIXTURES / "fig1a.bg"), "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["value"] == 2
    assert doc["separator_size"] == 2
    assert set(doc) == {"value", "links", "separator", "separator_size", "lp", "checks"}
    for link in doc["links"]:
        assert set(link) == {"type", "vertices", "edges"}
    assert isinstance(doc["lp"]["primal"], str)
    assert isinstance(doc["lp"]["dual"], str)
    for key in ("duality", "separator_verified", "links_disjoint"):
        assert doc["checks"][key] is True


def test_cli_solve_fig1b_names_the_separator():
    rc, out, _ = cli("solve", "--input", str(FIXTURES / "fig1b.bg"), "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["value"] == 2
    assert doc["separator"] == ["a"]


def test_cli_solve_oracle_verify():
    rc, out, _ = cli(
        "solve", "--input", str(FIXTURES / "fig1a.bg"), "--oracle-verify"
    )
    assert rc == EXIT_OK
    assert "value 2" in out


def test_cli_solve_st(tmp_path):
    p = tmp_path / "st.bg"
    p.write_text(
        "vertex s\nvertex v\nvertex t\n"
        "edge s v -+\nedge v t -+\n"
        "terminal s s\nterminal t t\n"
    )
    rc, out, _ = cli("solve-st", "--input", str(p), "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["value"] == 1
    assert doc["separator"] == ["v"]


def test_cli_solve_st_flags_override(tmp_path):
    p = tmp_path / "st.bg"
    p.write_text("vertex s\nvertex v\nvertex t\nedge s v -+\nedge v t -+\n")
    rc, out, _ = cli("solve-st", "--input", str(p), "--s", "s", "--t", "t", "--json")
    assert rc == EXIT_OK
    assert json.loads(out)["value"] == 1


def test_cli_solve_st_direct_edge_exit_3(tmp_path):
    p = tmp_path / "direct.bg"
    p.write_text("vertex s\nvertex t\nedge s t ++\nterminal s s\nterminal t t\n")
    rc, _, err = cli("solve-st", "--input", str(p))
    assert rc == EXIT_SEPARATOR_INFINITE
    assert "infinite" in err


def test_cli_xpaths(tmp_path):
    p = tmp_path / "tri.bg"
    p.write_text(
        "vertex x1\nvertex x2\nvertex x3\n"
        "edge x1 x2 ++\nedge x2 x3 ++\nedge x3 x1 ++\n"
        "set X x1 x2 x3\n"
    )
    rc, out, _ = cli("xpaths", "--input", str(p), "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["value"] == 1
    assert doc["separator_size"] <= 2


# Ids that the reductions make themselves: the terminals, the doubling's
# primes, the split halves and the gadget names.
CLASHING_IDS = "s t s' t' a a' a'' a+ a- a~X a~Y a'+".split()


def test_cli_solve_and_xpaths_step_round_ids_that_clash_with_fresh_names(tmp_path):
    path = tmp_path / "clash.bg"
    for seed in range(12):
        draw = random_instance(GenParams(7, 10, seed, 2, 2))
        g = draw.graph
        name = dict(zip(g.vertices, random.Random(seed).sample(CLASHING_IDS, 7)))
        inst = InstanceFile(
            build_graph([name[v] for v in g.vertices],
                        [(name[e.u], name[e.v], e.sign_u, e.sign_v) for e in g.edges]),
            frozenset(name[x] for x in draw.X), frozenset(name[y] for y in draw.Y),
        )
        path.write_text(serialize_instance(inst))
        for cmd, want in (
            ("solve", oracle_max_links(inst.graph, inst.X, inst.Y).value),
            ("xpaths", oracle_xpaths(inst.graph, inst.X)[0]),
        ):
            rc, out, err = cli(cmd, "--input", str(path), "--json")
            assert (rc, json.loads(out)["value"]) == (EXIT_OK, want), (seed, cmd, err)


def test_cli_oracle_json():
    rc, out, _ = cli("oracle", "--input", str(FIXTURES / "fig1a.bg"), "--json")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["max_links"] == 2
    assert doc["min_separator"] == 2
    assert doc["xpaths"]["max_packing"] == 1


def test_cli_gen_roundtrips():
    rc, out, _ = cli("gen", "--vertices", "5", "--edges", "6", "--seed", "3")
    assert rc == EXIT_OK
    rc2, out2, _ = cli("gen", "--vertices", "5", "--edges", "6", "--seed", "3")
    assert out == out2
    inst = parse_instance(out)
    assert inst.graph.n == 5 and inst.graph.m == 6


@pytest.mark.parametrize("argv, digest", [
    (("--vertices", "5", "--edges", "8", "--seed", "320010314", "--x", "2", "--y", "2"),
     "b0e876a65a2ccf75f0996c6724a9587be8d11c6f50b1daec6bf963e96610f4a9"),
    (("--vertices", "9", "--edges", "16", "--seed", "303011", "--x", "2", "--y", "2"),
     "08e0a47a1a604c4136d0875c29ea1109e5cee4846f334d9e936c9f88f69ce2dd"),
    (("--vertices", "12", "--edges", "21", "--seed", "4", "--x", "3", "--y", "0"),
     "a13df8984474f9fb1e21f3a05b2962c4818288672d8baa7d55cabe173458a5e5"),
])
def test_cli_gen_text_is_pinned(argv, digest):
    # the exact bytes of three seeded draws, sign characters included
    rc, out, err = cli("gen", *argv)
    assert rc == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_gen_invalid_params():
    rc, _, err = cli("gen", "--vertices", "1", "--edges", "5", "--seed", "0")
    assert rc == EXIT_INPUT
    assert "error" in err


def test_cli_missing_file():
    rc, _, err = cli("solve", "--input", "no-such-file.bg")
    assert rc == EXIT_INPUT


@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_cli_unreadable_input_exits_input(tmp_path, case):
    if case == "directory":
        path = tmp_path
    else:
        path = tmp_path / "bad.bg"
        path.write_bytes(b"vertex \xff\n")
    for command in ("solve", "oracle"):
        rc, out, err = cli(command, "--input", str(path))
        assert rc == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


def test_cli_reads_a_file_saved_with_a_utf8_bom(tmp_path):
    # editors on some platforms start UTF-8 files with U+FEFF
    path = tmp_path / "bom.bg"
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "fig1a.bg").read_bytes())
    plain = cli("solve", "--input", str(FIXTURES / "fig1a.bg"))
    assert plain[0] == EXIT_OK
    assert cli("solve", "--input", str(path)) == plain


# the last case asks for trial graphs above the oracle limit of 10 vertices
@pytest.mark.parametrize("args", [("--trials", "-3"), ("--max-vertices", "0"), ("--max-vertices", "1"),
                                  ("--trials", "3", "--max-vertices", "11")], ids="-".join)
def test_cli_selfcheck_rejects_invalid_params(args):
    rc, out, err = cli("selfcheck", *args)
    assert rc == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_selfcheck_reproducible():
    rc1, out1, _ = cli("selfcheck", "--trials", "8", "--seed", "5")
    rc2, out2, _ = cli("selfcheck", "--trials", "8", "--seed", "5")
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2
    assert "all passed" in out1


def _first_call(monkeypatch, *argv):
    """``cli`` on a parser that has parsed nothing yet."""
    with monkeypatch.context() as m:
        m.setattr(bmcli, "_PARSER", bmcli._build_parser())
        return cli(*argv)


def test_reused_parser_drops_oracle_verify_for_the_next_solve(monkeypatch):
    fig1a_path = str(FIXTURES / "fig1a.bg")
    plain = _first_call(monkeypatch, "solve", "--input", fig1a_path, "--json")
    assert plain[0] == EXIT_OK
    # the subcommands look their callees up at call time
    calls = []
    for name in ("parse_instance", "solve_menger", "oracle_max_links"):
        def wrapper(*args, _name=name, _fn=getattr(bmcli, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(bmcli, name, wrapper)
    assert cli("solve", "--input", fig1a_path, "--json", "--oracle-verify") == plain
    assert calls == ["parse_instance", "solve_menger", "oracle_max_links"]
    calls.clear()
    assert cli("solve", "--input", fig1a_path, "--json") == plain
    assert calls == ["parse_instance", "solve_menger"]


def test_reused_parser_runs_xpaths_after_solve(tmp_path, monkeypatch):
    p = tmp_path / "tri.bg"
    p.write_text(TRIANGLE)
    first = _first_call(monkeypatch, "xpaths", "--input", str(p), "--json")
    assert first[0] == EXIT_OK
    assert cli("solve", "--input", str(FIXTURES / "fig1a.bg"), "--oracle-verify")[0] == EXIT_OK
    assert cli("xpaths", "--input", str(p), "--json") == first


def test_reused_parser_recovers_from_a_parse_error(monkeypatch):
    argv = ("solve", "--input", str(FIXTURES / "fig1b.bg"))
    first = _first_call(monkeypatch, *argv)
    assert first[0] == EXIT_OK
    code, out, err = cli("solve")
    assert (code, out) == (EXIT_INPUT, "") and "--input" in err
    assert cli(*argv) == first


def test_parser_writes_to_the_callers_streams(capsys):
    code, out, err = cli("solve")
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("usage: bmcli solve") and "--input" in err
    code, out, err = cli("--help")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: bmcli")
    assert capsys.readouterr() == ("", "")


def test_selfcheck_engine_batch_order_independence():
    out = io.StringIO()
    assert run_selfcheck(5, 123, 6, out)


# an s-t draw whose dual root is fractional: the integral search on (D),
# the one program a certificate still cuts, runs on it
FRACTIONAL_DUAL = GenParams(5, 8, 12, 2, 2)


def _fractional_dual_argv(tmp_path):
    p = tmp_path / "fractional-dual.bg"
    p.write_text(serialize_instance(random_instance(FRACTIONAL_DUAL)))
    return ["solve-st", "--input", str(p), "--s", "v0", "--t", "v2", "--json"]


def _one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err


def test_cli_round_limit_exits_budget(tmp_path, monkeypatch):
    argv = _fractional_dual_argv(tmp_path)
    assert cli(*argv)[0] == EXIT_OK
    monkeypatch.setattr(ratlp, "_MAX_CUT_ROUNDS", 0)
    rc, out, err = cli(*argv)
    assert rc == EXIT_BUDGET
    assert out == ""
    assert _one_error_line(err)
    assert "round limit" in err


def test_cli_pivot_limit_exits_budget(monkeypatch):
    monkeypatch.setattr(ratlp, "_MAX_PIVOTS", 1)
    rc, out, err = cli("solve", "--input", str(FIXTURES / "fig1a.bg"))
    assert rc == EXIT_BUDGET
    assert out == ""
    assert _one_error_line(err)
    assert "pivot limit" in err


def _unbounded(*args, **kwargs):
    return LpSolution("unbounded", (), None)


@pytest.mark.parametrize(
    "attr, fake", [("simplex_max", _unbounded), ("solve_integral_max", _unbounded)]
)
def test_cli_non_optimal_lp_status_exits_verify(tmp_path, monkeypatch, attr, fake):
    monkeypatch.setattr(certify, attr, fake)
    rc, out, err = cli(*_fractional_dual_argv(tmp_path))
    assert rc == EXIT_VERIFY
    assert out == ""
    assert _one_error_line(err)
    assert "LpFailure" in err and "unbounded" in err


@pytest.mark.parametrize(
    "exc", [NotBalanced, DualInfeasible, InvalidDerivedLink, UnmappableEdge]
)
def test_cli_solver_failures_exit_verify(monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(certify, "extract_cut", fail)
    rc, out, err = cli("solve", "--input", str(FIXTURES / "fig1a.bg"), "--json")
    assert rc == EXIT_VERIFY
    assert out == ""
    assert err == f"error: {exc.__name__}: injected\n"


ST_INSTANCE = "vertex s\nvertex v\nvertex t\nedge s v -+\nedge v t -+\nterminal s s\nterminal t t\n"
TRIANGLE = (
    "vertex x1\nvertex x2\nvertex x3\n"
    "edge x1 x2 ++\nedge x2 x3 ++\nedge x3 x1 ++\n"
    "set X x1 x2 x3\n"
)
DIRECT_EDGE = "vertex s\nvertex t\nedge s t ++\nterminal s s\nterminal t t\n"
EXIT_INSTANCES = {
    "solve": (FIXTURES / "fig1a.bg").read_text(),
    "solve-st": ST_INSTANCE,
    "xpaths": TRIANGLE,
}


def _inject_verification_failure(*args, **kwargs):
    raise VerificationFailure("injected")


@pytest.mark.parametrize(
    "command, case, code",
    [
        (command, case, code)
        for command in EXIT_INSTANCES
        for case, code in [
            ("ok", EXIT_OK),
            ("missing_input", EXIT_INPUT),
            ("failed_check", EXIT_VERIFY),
            ("verification_failure", EXIT_VERIFY),
            ("budget", EXIT_BUDGET),
        ]
    ]
    # attaching terminals and doubling never create a direct s-t edge
    + [("solve-st", "direct_edge", EXIT_SEPARATOR_INFINITE)],
)
def test_cli_exit_paths(tmp_path, monkeypatch, command, case, code):
    p = tmp_path / "in.bg"
    p.write_text(DIRECT_EDGE if case == "direct_edge" else EXIT_INSTANCES[command])
    if case == "missing_input":
        p = tmp_path / "missing.bg"
    elif case == "failed_check":
        monkeypatch.setattr(certify, "_pairwise_disjoint", lambda *args: False)
    elif case == "verification_failure":
        monkeypatch.setattr(certify, "extract_cut", _inject_verification_failure)
    elif case == "budget":
        monkeypatch.setattr(ratlp, "_MAX_PIVOTS", 1)
    rc, out, err = cli(command, "--input", str(p), "--json")
    assert rc == code
    if case in ("ok", "failed_check"):
        assert err == ""
        assert json.loads(out)["checks"]["links_disjoint"] is (case == "ok")
    else:
        assert out == ""
        assert _one_error_line(err)
