import contextlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wittlab import BilinearSpace, cli, parse_ring
from wittlab.cli import run

from conftest import lifted_hat_basis, residue_f2_pair
from paper_data import f4_chain_certificate


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_ring_info(capsys):
    code, data = run_cli(capsys, "ring-info", "--ring", "GF(2)[x]/(x^4)")
    assert code == 0
    assert data["schema"] == "witt-lab/1"
    assert data["config"]["ring"] == "GF(2)[x]/(x^4)"
    assert data["ring"]["units"] == 8
    assert data["ring"]["squares"] == ["1", "1+x^2"]
    assert data["ring"]["residue_field"] == "GF(2)"


def test_gw_gf2(capsys):
    code, data = run_cli(capsys, "gw", "--ring", "GF(2)")
    assert code == 0
    assert data["free_rank"] == 1
    assert data["invariant_factors"] == []


def test_compare_counterexample(capsys):
    code, data = run_cli(capsys, "compare", "--ring", "GF(2)[x]/(x^4)")
    assert code == 0
    assert data["kernel"]["invariant_factors"] == [2]
    assert data["is_isomorphism"] is False
    assert data["cokernel"] == {"free_rank": 0, "invariant_factors": []}


def test_kmw_and_witt(capsys):
    code, data = run_cli(capsys, "kmw", "--ring", "GF(2)[x]/(x^4)")
    assert code == 0
    assert data["free_rank"] == 1 and data["invariant_factors"] == [2, 2, 2]
    code, data = run_cli(capsys, "witt", "--ring", "GF(2)[x]/(x^4)")
    assert code == 0
    assert data["free_rank"] == 0 and data["invariant_factors"] == [2, 2, 2]


def test_diagonalize(capsys):
    gram = json.dumps([[0, 1], [1, 0]])
    code, data = run_cli(capsys, "diagonalize", "--ring", "Z/4", "--gram", gram)
    assert code == 0
    assert data["units"] == []
    assert len(data["blocks"]) == 1


def test_diagonalize_reports_the_degenerate_determinant(capsys):
    """det [[1, 1], [1, 7]] = 7 - 1 = 6 over Z/9, not its negative 3."""
    code, data = run_cli(capsys, "diagonalize", "--ring", "Z/9", "--gram", "[[1,1],[1,7]]")
    assert code == 2
    assert data["error"] == "det = 6 is not a unit of Z/9"


def test_diagonalize_refuses_a_large_degenerate_gram_at_once(capsys):
    """A 22 x 22 Gram over Z/9 whose first row and column lie in 3Z/9 is
    degenerate; its first column holds no unit, so its determinant goes to
    the division-free fallback at once, which is polynomial in n."""
    rng = random.Random(22)
    n = 22
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = rng.choice((0, 3, 6)) if i == 0 else rng.randrange(9)
    t0 = time.perf_counter()
    code, data = run_cli(capsys, "diagonalize", "--ring", "Z/9", "--gram", json.dumps(gram))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert data["error"].startswith("det = ") and data["error"].endswith(" is not a unit of Z/9")


def test_chain_roundtrip_and_verify(tmp_path, capsys):
    gram = json.dumps([[1, 0], [0, 1]])
    frm = json.dumps([[1, 0], [0, 1]])
    to = json.dumps([[1, 1], [1, 2]])
    cert_path = tmp_path / "chain.json"
    code, data = run_cli(
        capsys, "chain", "--ring", "GF(3)", "--gram", gram,
        "--from", frm, "--to", to, "--output", str(cert_path),
    )
    assert code == 0
    assert data["certificate"]["ring"] == "GF(3)"
    code, data = run_cli(capsys, "verify", "--cert", str(cert_path))
    assert code == 0
    assert data["valid"] is True


def test_chain_over_residue_f2_verifies(capsys):
    A, B = residue_f2_pair()
    code, data = run_cli(
        capsys, "chain", "--ring", A.space.ring.spec, "--gram", json.dumps(A.space.to_json()),
        "--from", json.dumps(A.to_json()), "--to", json.dumps(B.to_json()),
    )
    assert code == 0
    code, data = run_cli(capsys, "verify", "--cert", json.dumps(data))
    assert code == 0 and data["valid"] is True


def test_verify_paper_chain(tmp_path, capsys):
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(f4_chain_certificate()))
    code, data = run_cli(capsys, "verify", "--cert", str(path))
    assert code == 0
    assert data["valid"] is True and data["kind"] == "chain"


def test_verify_rejects_corrupted_chain(tmp_path, capsys):
    cert = f4_chain_certificate()
    cert["bases"][3] = cert["bases"][0]  # break the overlap condition
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    code, data = run_cli(capsys, "verify", "--cert", str(path))
    assert code == 1
    assert data["valid"] is False
    assert "step" in data["diagnostic"] or "start" in data["diagnostic"]


def test_verify_reports_non_orthogonal_basis(capsys):
    cert = f4_chain_certificate()
    cert["bases"][1][1] = cert["bases"][1][0]
    code, data = run_cli(capsys, "verify", "--cert", json.dumps(cert))
    assert code == 1
    assert data["valid"] is False
    assert data["diagnostic"] == "basis 1: vectors 0 and 1 are not orthogonal"


@pytest.mark.parametrize("cert", [
    '{"bases": 1}',
    '{"matrix": [[1]]}',
    '1',
    '{"ring":"GF(3)","gram":[[1]],"bases":[]}',
])
def test_verify_rejects_malformed_certificates(capsys, cert):
    code = run(["verify", "--ring", "GF(3)", "--cert", cert])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["error"]
    assert "Traceback" not in out.err


@pytest.mark.parametrize("argv", [
    ["chain", "--gram", "[[1,0],[0,1]]", "--from", "1", "--to", "[[1,0],[0,1]]"],
    ["diagonalize", "--gram", "5"],
])
def test_matrix_flags_must_be_grids(capsys, argv):
    code = run(argv + ["--ring", "GF(3)"])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["error"]
    assert "Traceback" not in out.err


def _non_utf8_file(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe")
    return path


@pytest.mark.parametrize("make_path", [lambda tmp: tmp, _non_utf8_file])
@pytest.mark.parametrize("argv", [
    ["verify", "--cert"],
    ["diagonalize", "--ring", "GF(3)", "--gram"],
])
def test_unreadable_payload_files_are_usage_errors(tmp_path, capsys, argv, make_path):
    code = run(argv + [str(make_path(tmp_path))])
    out = capsys.readouterr()
    assert code == 2
    assert "cannot read" in json.loads(out.out)["error"]
    assert "Traceback" not in out.err


_DEEP = "[" * 100000
_LONG_GRID = "[[" + "9" * 5000 + "]]"
_LONG_NEGATIVE_GRID = "[[-" + "9" * 5000 + "]]"


@pytest.mark.parametrize("in_file", [False, True], ids=["inline", "file"])
@pytest.mark.parametrize("payload, error", [
    (_DEEP, "maximum recursion depth exceeded"),
    (_LONG_GRID, "integer literal of 5000 digits is too long"),
    (_LONG_NEGATIVE_GRID, "integer literal of 5000 digits is too long"),
], ids=["deep", "long-int", "long-negative-int"])
@pytest.mark.parametrize("argv", [
    ["verify", "--cert"],
    ["diagonalize", "--ring", "GF(3)", "--gram"],
    ["chain", "--ring", "GF(3)", "--gram", "[[1]]", "--to", "[[1]]", "--from"],
    ["chain", "--ring", "GF(3)", "--gram", "[[1]]", "--from", "[[1]]", "--to"],
], ids=["cert", "gram", "from", "to"])
def test_json_past_the_decoder_limits_is_a_usage_error(tmp_path, capsys, argv, payload,
                                                       error, in_file):
    """JSON nested deeper than the recursion limit, or with an integer
    literal too long for ``int``, exits 2 with a JSON error, inline or in a
    file; a too-long integer is worded as in ``--ring``, without advice
    about interpreter settings."""
    if in_file:
        path = tmp_path / "payload.json"
        path.write_text(payload)
        payload = str(path)
    code = run(argv + [payload])
    out = capsys.readouterr()
    assert code == 2
    message = json.loads(out.out)["error"]
    assert message.startswith("cannot decode") and error in message
    assert len(message) < 300 and "sys." not in message
    assert "Traceback" not in out.err


def test_verify_congruence_witness(capsys):
    witness = {
        "source": [[2, 0], [0, 4]],
        "target": [[1, 0], [0, 3]],
        "matrix": [[1, 4], [4, 2]],
    }
    code, data = run_cli(
        capsys, "verify", "--ring", "GF(5)", "--cert", json.dumps(witness)
    )
    assert code == 0 and data["valid"] is True
    witness["target"] = [[1, 0], [0, 4]]
    code, data = run_cli(
        capsys, "verify", "--ring", "GF(5)", "--cert", json.dumps(witness)
    )
    assert code == 1 and data["valid"] is False


def test_chain_unreachable_exit_codes(capsys):
    # the F_2 counterexample, its lift to a ring with residue field F_2, and
    # the counterexample at n = 18, where |R|^n exceeds the BFS space cap
    for spec, n in (("GF(2)", 4), ("GF(2)[x]/(x^4)", 4), ("GF(2)", 18)):
        ring = parse_ring(spec)
        space = BilinearSpace.diagonal(ring, (ring.one,) * n)
        gram = json.dumps(space.to_json())
        e = gram  # the rows of the identity are the standard basis
        ehat = json.dumps(lifted_hat_basis(space).to_json())
        code, data = run_cli(
            capsys, "chain", "--ring", spec, "--gram", gram, "--from", e, "--to", ehat,
            "--allow-unreachable",
        )
        assert code == 0 and data["unreachable"] is True
        assert data["detail"] == "endpoints lie in different chain components over F_2"
        code, data = run_cli(
            capsys, "chain", "--ring", spec, "--gram", gram, "--from", e, "--to", ehat,
        )
        assert code == 1 and data["unreachable"] is True


def test_usage_errors(capsys):
    code = run(["gw", "--ring", "Z/6"])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out.splitlines()[0])["error"]

    code = run(["gw"])  # missing --ring
    out = capsys.readouterr()
    assert code == 2

    code = run(["gw", "--ring", "GF(3)", "--bogus-flag"])
    out = capsys.readouterr()
    assert code == 2


def test_steinberg_check(capsys):
    code, data = run_cli(capsys, "steinberg-check", "--ring", "GF(5)")
    assert code == 0
    assert data["ok"] is True and data["asserted"] is True
    code, data = run_cli(capsys, "steinberg-check", "--ring", "GF(3)")
    assert code == 0
    assert data["asserted"] is False


def test_oracle_output(capsys):
    code, data = run_cli(
        capsys, "oracle", "--ring", "GF(5)", "--rank-cap", "2", "--stab-cap", "1"
    )
    assert code == 0
    assert data["classes"]["1"] and data["classes"]["2"]
    assert data["undecided"] == []


def test_gw_reports_undecided_isometry_pairs(capsys, search_cap_one):
    code, data = run_cli(capsys, "gw", "--ring", "Z/4", "--rank-cap", "4")
    assert code == 0
    assert data["undecided_isometry_pairs"] == 1


@pytest.mark.parametrize("command", ["gw", "witt", "compare"])
def test_group_commands_report_the_same_undecided_pairs(command, capsys):
    """32^4 exceeds the search space cap, so two rank-4 pairs stay open; W
    and the comparison rest on the same GW rows and report them too."""
    code, data = run_cli(capsys, command, "--ring", "Z/32", "--rank-cap", "4")
    assert code == 0
    assert data["undecided_isometry_pairs"] == 2


def test_determinism_byte_identical(capsys):
    code1 = run(["gw", "--ring", "Z/9"])
    out1 = capsys.readouterr().out
    code2 = run(["gw", "--ring", "Z/9"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["oracle", "--ring", "GF(3)", "--stab-cap", "-1"],
    ["oracle", "--ring", "GF(3)", "--rank-cap", "-2"],
    ["oracle", "--ring", "GF(3)", "--rank-cap", "0"],
    ["gw", "--ring", "GF(3)", "--rank-cap", "-5"],
    ["compare", "--ring", "GF(3)", "--rank-cap", "1"],
])
def test_out_of_range_integer_flags(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    assert code == 2
    assert "must be at least" in json.loads(out.out)["error"]
    assert "Traceback" not in out.err


@pytest.mark.parametrize("argv", [
    ["oracle", "--ring", "GF(3)", "--rank-cap", "1", "--stab-cap", "0"],
    ["gw", "--ring", "GF(3)", "--rank-cap", "2"],
])
def test_least_values_of_integer_flags_are_accepted(capsys, argv):
    assert run(argv) == 0
    capsys.readouterr()


# one call of each command, with every flag it takes
_FULL_ARGV = {
    "ring-info": ["--ring", "GF(3)"],
    "diagonalize": ["--ring", "GF(3)", "--gram", "[[1]]"],
    "chain": ["--ring", "GF(3)", "--gram", "[[1]]", "--from", "[[1]]", "--to", "[[2]]",
              "--allow-unreachable"],
    "verify": ["--cert", "{}"],
    "gw": ["--ring", "GF(3)", "--rank-cap", "3"],
    "kmw": ["--ring", "GF(3)"],
    "witt": ["--ring", "GF(3)", "--rank-cap", "2"],
    "compare": ["--ring", "GF(3)"],
    "steinberg-check": ["--ring", "GF(3)"],
    "oracle": ["--ring", "GF(3)", "--size-cap", "99", "--stab-cap", "1"],
}


def _help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_the_command_table_names_every_command():
    assert set(cli.COMMANDS) == set(_FULL_ARGV)


@pytest.mark.parametrize("command", sorted(_FULL_ARGV))
def test_single_command_parser_matches_full_parser(command, capsys):
    argv = [command] + _FULL_ARGV[command]
    full = cli.build_parser().parse_args(argv)
    single = cli.parse_args(argv)
    assert vars(single) == vars(full)
    assert cli._config_of(single) == cli._config_of(full)
    full_help = _help_text(cli.build_parser(), [command, "-h"], capsys)
    single_help = _help_text(cli.build_parser([command]), [command, "-h"], capsys)
    assert single_help == full_help
    assert command in full_help


@pytest.mark.parametrize("argv, error", [
    (["frobnicate", "--ring", "GF(3)"],
     "argument command: invalid choice: 'frobnicate' (choose from 'ring-info', "
     "'diagonalize', 'chain', 'verify', 'gw', 'kmw', 'witt', 'compare', "
     "'steinberg-check', 'oracle')"),
    ([], "the following arguments are required: command"),
    (["gw"], "the following arguments are required: --ring"),
    (["gw", "--ring", "GF(3)", "--bogus-flag"], "unrecognized arguments: --bogus-flag"),
    (["oracle", "--ring", "GF(3)", "--stab-cap", "x"],
     "argument --stab-cap: invalid int value: 'x'"),
    # removed flags
    (["chain", "--ring", "GF(3)", "--gram", "[[1]]", "--from", "[[1]]", "--to", "[[2]]",
      "--bfs-budget", "5"], "unrecognized arguments: --bfs-budget 5"),
    (["gw", "--ring", "GF(3)", "--seed", "0"], "unrecognized arguments: --seed 0"),
    (["kmw", "--ring", "GF(3)", "--rank-cap", "3"], "unrecognized arguments: --rank-cap 3"),
])
def test_usage_error_texts(capsys, argv, error):
    code = run(argv)
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out) == {"error": error}
    assert out.err == f"witt-lab: {error}\n"


@pytest.mark.parametrize("target", ["missing/result.json", "."])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, target):
    code = run(["kmw", "--ring", "Z/3", "--output", str(tmp_path / target)])
    out = capsys.readouterr()
    assert code == 2
    error = json.loads(out.out)["error"]
    assert "cannot write --output" in error
    assert out.err == f"witt-lab: {error}\n"


# values that argparse reads in ways a hand parse can get wrong
_AWKWARD_VALUES = ["", "a b", "+5", " 7", "007", "3", "GF(3)", "[[1,0],[0,1]]", "[[1]]"]


def _table_corpus():
    """argvs built from the command table: every command, flag subsets in
    several orders, each with a value drawn from _AWKWARD_VALUES."""
    rng = random.Random(14)
    corpus = []
    for name, cmd in cli.COMMANDS.items():
        flags = cmd.flags()
        required = [f for f, kw in flags.items() if kw.get("required")]
        optional = [f for f in flags if f not in required]
        draws = [list(flags), list(flags)[::-1]]
        for i in range(80):
            chosen = rng.sample(list(flags), rng.randrange(len(flags) + 1))
            if i % 2:  # half the draws carry every required flag
                chosen = required + rng.sample(optional, rng.randrange(len(optional) + 1))
            rng.shuffle(chosen)
            draws.append(chosen)
        for chosen in draws:
            argv = [name]
            for flag in chosen:
                argv.append(flag)
                if flags[flag].get("action") != "store_true":
                    argv.append(rng.choice(_AWKWARD_VALUES))
            corpus.append(argv)
    return corpus


def test_table_parse_agrees_with_argparse_or_declines():
    parser = cli.build_parser()
    accepted, declined = set(), set()
    for argv in _table_corpus():
        try:
            expected = vars(parser.parse_args(argv))
        except cli.UsageError:
            expected = None
        got = cli._parse_from_table(argv)
        if got is None:
            declined.add(argv[0])
        else:
            assert vars(got) == expected, argv
            accepted.add(argv[0])
    assert accepted == declined == set(cli.COMMANDS)


def _groups_cold_argvs(monkeypatch):
    """The 56 commands of the benchmark's groups_cold workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import GroupsCold

    argvs = [[c, "--ring", s] for s in GroupsCold.specs for c in GroupsCold.COMMANDS]
    assert len(argvs) == 56
    return argvs


def test_canonical_calls_build_no_parser(monkeypatch):
    argvs = _groups_cold_argvs(monkeypatch) + [[c] + a for c, a in _FULL_ARGV.items()]
    expected = [vars(cli.build_parser().parse_args(argv)) for argv in argvs]

    def no_parser(*names):
        raise AssertionError("a canonical call built an argparse parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert [vars(cli.parse_args(argv)) for argv in argvs] == expected


@pytest.mark.parametrize("argv", [
    ["gw", "-h"],
    ["gw", "--ri", "GF(3)"],
    ["gw", "--ring=GF(3)"],
    ["oracle", "--ring", "GF(3)", "--stab-cap", "-1"],
    ["gw", "--ring", "GF(3)", "--ring", "GF(5)"],
    ["chain", "--ring", "GF(3)", "--gram", "[[1]]", "--from", "[[1]]", "--to"],
])
def test_non_canonical_calls_reach_argparse(monkeypatch, capsys, argv):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *names: built.append(names) or build_parser(*names))
    assert cli._parse_from_table(argv) is None
    with contextlib.suppress(SystemExit, cli.UsageError):
        cli.parse_args(argv)
    capsys.readouterr()
    assert built


_F4_IDENTITY = json.dumps([[[1] if i == j else [] for j in range(4)] for i in range(4)])


@pytest.mark.parametrize("argv", [
    ["chain", "--ring", "Z/9", "--gram", "[[1,0,0],[0,2,0],[0,0,1]]",
     "--from", "[[5,7,1],[4,0,7],[2,8,4]]", "--to", "[[8,3,3],[6,6,2],[3,2,6]]"],
    ["chain", "--ring", "GF(4)", "--gram", _F4_IDENTITY, "--from", _F4_IDENTITY,
     "--to", json.dumps([[[] if i == j else [1] for j in range(4)] for i in range(4)])],
    ["gw", "--ring", "GF(3)[x]/(x^2)"],
    ["gw", "--ring", "Z/9"],
])
def test_output_does_not_depend_on_the_hash_seed(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "wittlab.cli", *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_a_closed_stdout_exits_quietly():
    """A reader that has gone (``witt-lab gw ... | head -1``) makes the
    write fail with a broken pipe; the CLI exits 1 without a traceback."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wittlab.cli", "gw", "--ring", "Z/8"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()


@pytest.mark.parametrize("argv", [
    ["--ring", "Z/9", "--cert", '{"source":[[1]],"target":[[1]],"matrix":[[true]]}'],
    ["--cert", '{"ring":"Z/9","gram":[[true]],"bases":[[[1]]]}'],
    ["--cert", '{"ring":"Z/9","gram":[[1]],"bases":[[[false]]]}'],
    ["--cert", '{"ring":"GF(4)","gram":[[[1]]],"bases":[[[[true]]]]}'],
])
def test_verify_rejects_json_booleans_as_ring_elements(capsys, argv):
    code = run(["verify"] + argv)
    out = capsys.readouterr()
    assert code == 2
    assert "expected an integer" in json.loads(out.out)["error"]
    assert "Traceback" not in out.err


@pytest.mark.parametrize("spec, error", [
    ("GF(3)[x]/(x^99999999)", "polynomial degree 99999999 exceeds the size cap 4096"),
    ("GF(3)[x]/(x^3000*x^3000)", "polynomial degree 6000 exceeds the size cap 4096"),
    ("GF(3)[x]/(x^4000)", "|R| = 3^4000 exceeds the size cap 4096"),
])
def test_ring_specs_with_large_exponents_are_refused_at_once(capsys, spec, error):
    code, data = run_cli(capsys, "ring-info", "--ring", spec)
    assert code == 2
    assert data["error"] == error


@pytest.mark.parametrize("spec, error", [
    ("Z/100000000000000000039", "|Z/100000000000000000039| exceeds the size cap 4096"),
    ("GF(100000000000000000039)", "|GF(100000000000000000039)| exceeds the size cap 4096"),
    ("GF(2^99999999999)", "|GF(2^99999999999)| exceeds the size cap 4096"),
])
def test_large_moduli_are_refused_before_they_are_factored(capsys, spec, error):
    """A prime modulus above the cap is refused at once, not factored by
    trial division first."""
    t0 = time.perf_counter()
    code, data = run_cli(capsys, "ring-info", "--ring", spec)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert data["error"] == error


_LONG = "9" * 5000


@pytest.mark.parametrize("spec", [
    f"Z/{_LONG}",                    # modulus
    f"GF({_LONG})",                  # field size
    f"GF(3)[x]/(x^{_LONG})",         # exponent
    f"GF(3)[x]/(x^2+{_LONG})",       # coefficient
    f"GF(3^{_LONG})",                # field exponent
])
def test_integers_too_long_for_int_exit_2_with_a_json_error(capsys, spec):
    code = run(["ring-info", "--ring", spec])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["error"] == "integer literal of 5000 digits is too long"
    assert "Traceback" not in out.err
