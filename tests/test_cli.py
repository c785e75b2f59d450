import contextlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import cli, models
from groupoidal.groupoids import FiniteGroupoid, require_nerve_work
from groupoidal.models import BratteliDiagram, cyclic_table


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload), encoding="utf-8")
        return str(p)

    return {
        "z2": write("z2.json", {"kind": "group", "cayley": [[0, 1], [1, 0]]}),
        "pair3": write("pair3.json", {"kind": "pair", "fibers": [3]}),
        "uhf2": write("uhf2.json", {"kind": "bratteli", "stationary": True,
                                    "p": 2, "levels": 4}),
        "sign": write("sign.json", {"fibers": {"0": 1},
                                    "action": {"1": [[-1]]}}),
        "badmod": write("badmod.json", {"fibers": {"0": 1},
                                        "action": {"1": [[2]]}}),
        "queries": write("queries.json", [
            {"op": "divisible", "stage": 0, "vector": [1], "q": 4, "bound": 4},
            {"op": "equal", "a": {"stage": 0, "vector": [1]},
             "b": {"stage": 1, "vector": [2]}, "bound": 4},
        ]),
        "badjson": write("bad.json", {"kind": "explicit", "arrows": 2,
                                      "units": [0], "src": [0, 0], "rng": [0, 0],
                                      "inv": [0, 1],
                                      "compose": [[0, 0, 0], [0, 1]]}),
        "tmp": tmp_path,
    }


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_group_file(files):
    G = cli.parse_input(files["z2"])
    assert isinstance(G, FiniteGroupoid)
    assert G.n_arrows == 2


def test_parse_bratteli_file(files):
    B = cli.parse_input(files["uhf2"])
    assert isinstance(B, BratteliDiagram)
    assert B.stationary


def test_parse_malformed_compose_triple(files):
    with pytest.raises(cli.ParseError) as e:
        cli.parse_input(files["badjson"])
    assert "[0, 1]" in str(e.value)


def test_parse_module_validation(files):
    G = cli.parse_input(files["z2"])
    M = cli.parse_module(files["sign"], G)
    assert M.act(1).data == [[-1]]
    with pytest.raises(cli.ValidationError):
        cli.parse_module(files["badmod"], G)


def test_homology_command(files, capsys):
    code, out = run_cli(["homology", files["z2"], "--max-degree", "3"], capsys)
    assert code == 0
    assert "H_1  Z/2" in out and "H_3  Z/2" in out


def test_homology_json_round_trip(files, capsys):
    code, out = run_cli(["homology", files["z2"], "--max-degree", "3",
                         "--format", "json"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2) + "\n" == out
    assert parsed["groups"][1] == {"degree": 1, "free_rank": 0, "torsion": [2]}


def test_cohomology_command_with_module(files, capsys):
    code, out = run_cli(["cohomology", files["z2"], "--module", files["sign"],
                         "--max-degree", "2", "--format", "json"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert [g["free_rank"] for g in parsed["groups"]] == [0, 0, 0]


def test_verify_theta_seed_42(files, capsys):
    code, out = run_cli(["verify-theta", "--seed", "42", "--count", "3"], capsys)
    assert code == 0
    assert "overall: ok" in out


def test_verify_theta_reports_failure_exit_code(files, capsys, monkeypatch):
    from groupoidal.cohomology import ThetaRhoReport

    def fake_check(G, M, n_max):
        return ThetaRhoReport(n_max, False, [(0, "forced")], [], [])

    monkeypatch.setattr(cli.coh, "theta_rho_check", fake_check)
    code, _ = run_cli(["verify-theta", files["z2"]], capsys)
    assert code == cli.VERIFICATION_FAILED


def test_skew_les_command(files, capsys):
    code, out = run_cli(["skew-les", files["z2"], "--cocycle", "zero",
                         "--window", "6", "--guard", "2",
                         "--mode", "cohomology", "--max-degree", "1"], capsys)
    assert code == 0
    assert "overall: ok" in out


def test_skew_les_guard_too_small_exit_2(files, capsys):
    code = cli.main(["skew-les", files["z2"], "--cocycle", "zero",
                     "--window", "3", "--guard", "3"])
    assert code == cli.USAGE_ERROR


def test_dimension_group_queries(files, capsys):
    code, out = run_cli(["dimension-group", files["uhf2"], "--levels", "4",
                         "--queries", files["queries"], "--format", "json"],
                        capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["queries"][0]["kind"] == "witness"
    assert parsed["queries"][1]["kind"] == "equal"


def test_af_cohomology_command(files, capsys):
    code, out = run_cli(["af-cohomology", files["uhf2"], "--levels", "3",
                         "--depth", "4", "--format", "json"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["h0"]["constants_only"] is True
    assert parsed["h1"]["nonml_evidence"] is True


def test_odometer_command(files, capsys):
    code, out = run_cli(["odometer", "--p", "2", "--max-depth", "3",
                         "--format", "json"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["depths"][1]["h0_connecting"] == [[2]]
    assert parsed["stabilized_h1"] == {"free_rank": 1, "torsion": []}


def test_z_action_command(files, capsys):
    code, out = run_cli(["z-action", "--perm", "1,2,3,4,0",
                         "--format", "json"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["h0"] == {"free_rank": 1, "torsion": []}
    assert parsed["h1_dual"] == {"free_rank": 1, "torsion": []}


def test_unknown_command_exits_2(files):
    with pytest.raises(SystemExit) as e:
        cli.main(["no-such-command"])
    assert e.value.code == 2


def test_bad_flag_exits_2(files):
    with pytest.raises(SystemExit) as e:
        cli.main(["homology"])  # missing input
    assert e.value.code == 2


def test_main_reuses_one_parser_without_carrying_state(capsys, monkeypatch):
    # a usage error and a range error leave nothing behind for the next call
    with pytest.raises(SystemExit) as e:
        cli.main(["homology"])
    assert e.value.code == 2
    assert cli.main(["homology", "x.json", "--max-degree", "-1"]) == cli.USAGE_ERROR
    golden = os.path.join(os.path.dirname(__file__), "golden")
    monkeypatch.chdir(golden)
    with open("homology-s3.json", "rb") as fh:
        expected = fh.read()
    capsys.readouterr()
    for _ in range(2):
        assert cli.main(["homology", "inputs/s3.json", "--max-degree", "3",
                         "--format", "json"]) == 0
        assert capsys.readouterr().out.encode() == expected
    assert cli.build_parser() is cli.build_parser()


def test_cap_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("GROUPOIDAL_CAP", "2")
    code = cli.main(["homology", files["pair3"], "--max-degree", "2"])
    assert code == cli.USAGE_ERROR


@pytest.mark.parametrize("value", ["abc", "-1", "0", "2.5", "9" * 5000],
                         ids=["letters", "negative", "zero", "fraction", "too-many-digits"])
@pytest.mark.parametrize("argv", [["homology", "z2"], ["z-action", "--perm", "1,0"]],
                         ids=["homology", "z-action"])
def test_malformed_cap_exits_2_with_one_error_line(value, argv, files, capsys, monkeypatch):
    monkeypatch.setenv("GROUPOIDAL_CAP", value)
    code = cli.main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR
    assert captured.out == ""
    # an integer of more than 20 digits is named by its digit count
    shown = value if len(value) <= 20 else f"<{len(value)} digits>"
    assert captured.err == ("error: GroupoidError: GROUPOIDAL_CAP must be a positive "
                            f"integer, got {shown!r}\n")


def test_start_up_imports_no_dataclasses():
    # the records of src/ declare their fields in __slots__ and share the one
    # constructor of groupoidal.records, so importing the command line and
    # building its parser generates no methods and imports neither module
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; from groupoidal import cli; cli.build_parser(); "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr[-300:]
    assert res.stdout == "[]\n"


def _run_subprocess(argv, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    res = subprocess.run([sys.executable, "-m", "groupoidal.cli"] + argv,
                         capture_output=True, env=env)
    return res.returncode, res.stdout


def test_byte_identical_across_runs_and_hash_seeds(files):
    commands = [
        ["homology", files["z2"], "--max-degree", "3", "--format", "json"],
        ["cohomology", files["pair3"], "--max-degree", "2", "--format", "json"],
        ["verify-theta", "--seed", "42", "--count", "2", "--format", "json"],
        ["skew-les", files["z2"], "--cocycle", "zero", "--window", "5",
         "--guard", "2", "--max-degree", "1", "--format", "json"],
        ["dimension-group", files["uhf2"], "--levels", "3",
         "--queries", files["queries"], "--format", "json"],
        ["odometer", "--p", "2", "--max-depth", "3", "--format", "json"],
        ["z-action", "--perm", "2,0,1", "--format", "json"],
    ]
    for argv in commands:
        code1, out1 = _run_subprocess(argv, "0")
        code2, out2 = _run_subprocess(argv, "1")
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
        parsed = json.loads(out1)
        assert (json.dumps(parsed, indent=2) + "\n").encode() == out1


def test_homology_mod_m_coefficients_via_cli(files, capsys):
    code, out = run_cli(["homology", files["z2"], "--max-degree", "3",
                         "--coefficients", "Z/2", "--format", "json"], capsys)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["coefficients"] == "Z/2"
    assert all(g["torsion"] == [2] for g in parsed["groups"])


def test_homology_with_a_large_prime_modulus_answers_in_time(files):
    # 10**18 + 3 is prime: normalizing Z/m must not factor m by trial division
    m = 10 ** 18 + 3
    res = subprocess.run([sys.executable, "-m", "groupoidal.cli", "homology", files["z2"],
                          "--coefficients", f"Z/{m}", "--format", "json"],
                         capture_output=True, timeout=20)
    assert res.returncode == 0
    groups = json.loads(res.stdout)["groups"]
    assert [g["torsion"] for g in groups] == [[m], [], []]


def test_bad_coefficients_exit_2(files):
    assert cli.main(["homology", files["z2"], "--coefficients", "mod2"]) == 2


def test_unknown_kind_exit_2(files, tmp_path):
    p = tmp_path / "weird.json"
    p.write_text('{"kind": "mystery"}')
    assert cli.main(["homology", str(p)]) == cli.USAGE_ERROR


def test_z_action_rejects_non_permutation_exit_2(files):
    assert cli.main(["z-action", "--perm", "0,0,1"]) == cli.USAGE_ERROR


_Z2 = {"kind": "group", "cayley": [[0, 1], [1, 0]]}
_Z2_COMPOSE = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
_UHF2 = {"kind": "bratteli", "stationary": True, "p": 2, "levels": 2}
_TWO_STAGES = {"kind": "bratteli", "matrices": [[[2]]], "vertex_counts": [1, 1]}
_MODULE = ["cohomology", "MODEL", "--module", "AUX"]
_COCYCLE = ["skew-les", "MODEL", "--cocycle", "AUX", "--window", "4", "--guard", "1"]
_QUERIES = ["dimension-group", "MODEL", "--queries", "AUX"]


def _dense_involution(n=120, steps=600, seed=20):
    """U P U^-1 for P a product of n/2 disjoint transpositions and U a
    product of `steps` random elementary matrices I + c e_i e_j^T, c = +-1:
    each conjugation adds c times row j to row i, then subtracts c times
    column i from column j.  At these defaults 90% of the entries are
    nonzero, of absolute value up to 134, and the JSON file is 55 KB."""
    rng = random.Random(seed)
    a = [[0] * n for _ in range(n)]
    points = list(range(n))
    rng.shuffle(points)
    for x, y in zip(points[::2], points[1::2]):
        a[x][y] = a[y][x] = 1
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        a[i] = [u + c * v for u, v in zip(a[i], a[j])]
        for row in a:
            row[j] -= c * row[i]
    return a


# a rank-120 module on Z/2 whose validation products pass the default cap
_DENSE_MODULE = {"fibers": {"0": 120}, "action": {"1": _dense_involution()}}


@pytest.mark.parametrize("argv, model, aux", [
    (["homology", "MODEL", "--max-degree", "-1"], _Z2, None),
    (["cohomology", "MODEL", "--max-degree", "-1"], _Z2, None),
    (["homology", "MODEL", "--coefficients", "Z/x"], _Z2, None),
    (["odometer", "--p", "1", "--max-depth", "2"], None, None),
    (["odometer", "--p", "2", "--max-depth", "0"], None, None),
    (["verify-theta", "--count", "-1"], None, None),
    (["af-cohomology", "MODEL", "--levels", "0", "--depth", "2"], _UHF2, None),
    (["dimension-group", "MODEL", "--levels", "-1"], _UHF2, None),
    (["homology", "MODEL"], {"kind": "pair", "fibers": 3}, None),
    (["homology", "MODEL"], {"kind": "explicit", "arrows": 2, "units": [0, 5],
                             "src": [0, 0], "rng": [0, 0], "inv": [0, 1],
                             "compose": _Z2_COMPOSE}, None),
    (["homology", "MODEL"], {"kind": "explicit", "arrows": 2, "units": [0],
                             "src": [0, 1], "rng": [0, 0], "inv": [0, 1],
                             "compose": _Z2_COMPOSE}, None),
    (_MODULE, _Z2, {"fibers": {"0": "x"}}),
    (_MODULE, _Z2, {"fibers": {"0": 1}, "action": {"1": [["a"]]}}),
    (_COCYCLE, _Z2, {"values": [0, 0]}),
    (_COCYCLE, _Z2, {"values": {"1": "x"}}),
    (_QUERIES, _UHF2, [{"op": "divisible", "vector": [1], "q": 2}]),
    (_QUERIES, _UHF2, [{"op": "divisible", "stage": 0, "q": 2}]),
    (_QUERIES, _UHF2, [{"op": "divisible", "stage": 0, "vector": [1]}]),
    (_QUERIES, _UHF2, [{"op": "divisible", "stage": "x", "vector": [1], "q": 2}]),
    (_QUERIES, _UHF2, [{"op": "divisible", "stage": 0, "vector": [1], "q": 0}]),
    (_QUERIES, _TWO_STAGES, [{"op": "divisible", "stage": 5, "vector": [1], "q": 2}]),
    (_QUERIES, _TWO_STAGES, [{"op": "divisible", "stage": -1, "vector": [1], "q": 2}]),
    # a stationary tower has every stage from 0 on, and none below it
    (_QUERIES, _UHF2, [{"op": "divisible", "stage": -3, "vector": [1], "q": 2}]),
    (_QUERIES, _UHF2, [{"op": "equal", "a": {"stage": -4, "vector": [1]},
                        "b": {"stage": 0, "vector": [1]}}]),
    (["dimension-group", "MODEL"], {"kind": "bratteli", "stationary": True, "p": "x"},
     None),
    (["dimension-group", "MODEL"], {**_TWO_STAGES, "vertex_counts": 3}, None),
    (["dimension-group", "MODEL"], {**_TWO_STAGES, "vertex_counts": ["a", "b"]}, None),
    (["dimension-group", "MODEL"], {"kind": "bratteli", "stationary": True, "matrices": []},
     None),
    (["homology", "MODEL"], {"kind": "group", "cayley": "x"}, None),
    (["homology", "MODEL"], {"kind": "action", "cayley": [[0, 1], [1, 0]], "perms": 5},
     None),
    (["dimension-group", "MODEL"], {**_UHF2, "levels": float("inf")}, None),
    (["dimension-group", "MODEL"], {**_UHF2, "levels": 3_000_000}, None),
    (_QUERIES, {"kind": "bratteli", "stationary": True, "matrices": [[[1, 1], [1, 0]]]},
     [{"op": "divisible", "stage": 3, "vector": [1, 0], "q": 2, "bound": 1}]),
    (["homology", "MODEL"], {"kind": "pair", "fibers": [3000]}, None),
    # refused before the point list is allocated; at this size a list would
    # not fit in memory, so allocating first fails fast instead of paging
    (["homology", "MODEL"], {"kind": "pair", "fibers": [10 ** 12]}, None),
    (["homology", "MODEL", "--max-degree", "100000"], {"kind": "pair", "fibers": [1]},
     None),
    (["cohomology", "MODEL", "--max-degree", "100000"], {"kind": "pair", "fibers": [1]},
     None),
    (["verify-theta", "MODEL", "--max-degree", "100000"], {"kind": "pair", "fibers": [1]},
     None),
    (["skew-les", "MODEL", "--window", "2", "--guard", "1", "--max-degree", "100000"],
     {"kind": "pair", "fibers": [1]}, None),
    # an integer is a JSON integer: not a float, a string or a bool
    (_MODULE, _Z2, {"fibers": {"0": 2.9}}),
    (_MODULE, _Z2, {"fibers": {"0": "1"}}),
    (_QUERIES, _UHF2, [{"op": "divisible", "stage": 0.9, "vector": [1], "q": 2}]),
    (_QUERIES, _UHF2, [{"op": "divisible", "stage": 0, "vector": [1], "q": "3"}]),
    (_QUERIES, _UHF2, [{"op": "divisible", "stage": 0, "vector": [1.5], "q": 2}]),
    (["homology", "MODEL"], {"kind": "pair", "fibers": [True, 2]}, None),
    (_COCYCLE, _Z2, {"values": {"1": 0.0}}),
    # more digits than Python converts to an int
    (["homology", "MODEL", "--coefficients", "Z/" + "9" * 5000], _Z2, None),
    # the odometer takes --p; no command reads an odometer model file
    (["homology", "MODEL"], {"kind": "odometer", "p": 2}, None),
    # a key that names no unit or arrow, or no field, is refused, not dropped
    (_MODULE, _Z2, {"fibers": {"0": 1}, "action": {"5": [[-1]]}}),
    (_MODULE, _Z2, {"fibers": {"0": 1, "1": 1}}),
    (_MODULE, _Z2, {"fibers": {"0": 1}, "actions": {"1": [[-1]]}}),
    (_MODULE, _Z2, {"fibers": {"0": -1}}),
    (_COCYCLE, _Z2, {"values": {"9": 3}}),
    (_COCYCLE, _Z2, {"values": {}, "potential": {"0": 1}}),
    # a unit listed twice would count as two: H_0 = Z^2 for a point
    (["homology", "MODEL"], {"kind": "explicit", "arrows": 1, "src": [0], "rng": [0],
                             "inv": [0], "units": [0, 0], "compose": [[0, 0, 0]]}, None),
    # a pair composed twice, with different results: neither may win silently
    (["homology", "MODEL"], {"kind": "explicit", "arrows": 2, "src": [0, 0], "rng": [0, 0],
                             "inv": [0, 1], "units": [0],
                             "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1],
                                         [1, 1, 0]]}, None),
    # a module that the command would not read is refused, not ignored:
    # random instances draw their own modules, and skew-les reads one only
    # with --mode cohomology
    (["verify-theta", "--module", "no-such-module.json"], None, None),
    (["skew-les", "MODEL", "--window", "2", "--guard", "1", "--module", "AUX"], _Z2,
     {"fibers": {"0": 1}}),
], ids=["max-degree", "cohomology-max-degree", "coefficients", "odometer-p",
        "odometer-depth", "count", "af-levels", "dimension-levels", "pair-fibers",
        "unit-range", "src-not-unit", "module-fiber-type", "module-action-entry",
        "cocycle-list", "cocycle-value", "query-no-stage", "query-no-vector",
        "query-no-q", "query-stage-type", "query-q-zero", "query-stage-beyond", "query-stage-negative",
        "query-stationary-stage-negative", "query-equal-stationary-stage-negative",
        "bratteli-p-type", "bratteli-counts-int", "bratteli-counts-strings",
        "stationary-no-matrix", "cayley-string", "perms-int", "levels-infinity",
        "levels-over-cap", "query-divisible-stage-over-bound", "pair-fibers-over-cap",
        "pair-fiber-huge", "homology-total-work", "cohomology-total-work",
        "verify-theta-total-work", "skew-les-total-work", "module-fiber-float",
        "module-fiber-string", "query-stage-float", "query-q-string", "query-vector-float",
        "pair-fibers-bool", "cocycle-value-float", "coefficients-digits",
        "odometer-model-kind", "module-action-key", "module-fiber-key",
        "module-field", "module-fiber-negative", "cocycle-value-key", "cocycle-field",
        "unit-duplicate", "compose-duplicate", "verify-theta-module-without-input",
        "skew-les-homology-module"])
def test_known_bad_inputs_exit_2_with_one_error_line(argv, model, aux, tmp_path, capsys,
                                                     request):
    files = {"MODEL": tmp_path / "model.json", "AUX": tmp_path / "aux.json"}
    for slot, payload in (("MODEL", model), ("AUX", aux)):
        files[slot].write_text(json.dumps(payload), encoding="utf-8")
    code = cli.main([str(files[a]) if a in files else a for a in argv])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert _NAMED.get(request.node.callspec.id, "") in captured.err


# what the error line must name, for the cases that check it
_NAMED = {"module-action-key": "action has an unknown key '5'",
          "module-fiber-key": "fibers has an unknown key '1'",
          "module-field": "the module has an unknown key 'actions'",
          "module-fiber-negative": "fibers[0] must be a non-negative integer",
          "cocycle-value-key": "values has an unknown key '9'",
          "cocycle-field": "the cocycle has an unknown key 'potential'",
          "unit-duplicate": "violated unit-duplicate at (0,)",
          "compose-duplicate": "compose lists the pair (1, 1) twice, as 1 and 0",
          "verify-theta-module-without-input": "--module needs an input model",
          "skew-les-homology-module": "--module is read only with --mode cohomology",
          "query-stationary-stage-negative": "StageBoundExceeded: stage -3 is below 0",
          "query-equal-stationary-stage-negative": "StageBoundExceeded: stage -4 is below 0"}


@pytest.mark.parametrize("text", [b'{"kind": "pair", "fibers": [' + b"9" * 5000 + b"]}",
                                  b'{"kind": "pair", "fibers": [\xff]}'],
                         ids=["integer-digits", "not-utf8"])
def test_unreadable_model_file_exits_2_with_one_error_line(text, tmp_path, capsys):
    # json.load raises a plain ValueError for both, not a JSONDecodeError
    path = tmp_path / "model.json"
    path.write_bytes(text)
    code = cli.main(["homology", str(path)])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, slot", [(["homology", "MODEL"], "MODEL"),
                                        (_MODULE, "AUX"), (_COCYCLE, "AUX"), (_QUERIES, "AUX")],
                         ids=["model", "module", "cocycle", "queries"])
def test_deeply_nested_file_exits_2_with_one_error_line(argv, slot, tmp_path, capsys):
    # the JSON decoder recurses once per level and would end in a RecursionError
    files = {"MODEL": tmp_path / "model.json", "AUX": tmp_path / "aux.json"}
    files["MODEL"].write_text(json.dumps(_UHF2 if "--queries" in argv else _Z2), encoding="utf-8")
    files[slot].write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code = cli.main([str(files[a]) if a in files else a for a in argv])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR
    assert captured.out == ""
    assert captured.err == f"error: ParseError: {files[slot]}: nested too deeply\n"


# each would allocate gigabytes if built; the child's address space is
# limited and its time bounded, so a regression fails fast instead of
# exhausting memory
@pytest.mark.parametrize("argv, model, aux, env", [
    (_MODULE, _Z2, {"fibers": {"0": 10 ** 6}}, {}),
    # every command that reads a module charges its validation products,
    # however few strings it builds on it
    (["verify-theta", "MODEL", "--module", "AUX", "--max-degree", "0"], _Z2, _DENSE_MODULE, {}),
    (["skew-les", "MODEL", "--window", "4", "--guard", "1", "--mode", "cohomology",
      "--module", "AUX"], _Z2, _DENSE_MODULE, {}),
    (["skew-les", "MODEL", "--window", "1000000", "--guard", "3"],
     {"kind": "pair", "fibers": [1]}, None, {}),
    (["skew-les", "MODEL", "--window", "300000", "--guard", "3"],
     {"kind": "pair", "fibers": [1]}, None, {}),
    (["homology", "MODEL"], _Z2, None, {"GROUPOIDAL_CAP": "abc"}),
    # a power p^d or a sum of k^3 is compared with the cap without being
    # printed: the message names the inputs, not a number of many digits
    (["af-cohomology", "MODEL", "--levels", "3", "--depth", "100000"], _UHF2, None, {}),
    (["af-cohomology", "MODEL", "--levels", "1000000", "--depth", "3"], _UHF2, None, {}),
    (["odometer", "--p", "2", "--max-depth", "1000"], None, None, {}),
    (["homology", "MODEL"], {"kind": "pair", "fibers": [10 ** 1500]}, None, {}),
    # flags that multiply the work without a model to match: the stages a
    # stationary tower prints, and the random instances generated
    (["dimension-group", "MODEL", "--levels", "3000000"], {**_UHF2, "levels": 3}, None, {}),
    (["dimension-group", "MODEL", "--levels", "100000000"], {**_UHF2, "levels": 3}, None, {}),
    (["verify-theta", "--seed", "1", "--count", "100000000"], None, None, {}),
    # a million points over three depths, although the last depth alone
    # (p^3) is within the cap: every depth is factored
    (["odometer", "--p", "100", "--max-depth", "3"], None, None, {}),
    # checks over all triples of a table: k^3 for a group, k^2 |X| for an
    # action, and the composable triples of an explicit groupoid
    (["homology", "MODEL"], {"kind": "group", "cayley": cyclic_table(400)}, None, {}),
    (["homology", "MODEL"], {"kind": "action", "cayley": cyclic_table(100),
                             "perms": [[(x + g) % 300 for x in range(300)] for g in range(100)]},
     None, {}),
    (["homology", "MODEL"], {"kind": "explicit", "arrows": 130, "src": [0] * 130,
                             "rng": [0] * 130, "inv": [-g % 130 for g in range(130)],
                             "units": [0], "compose": [[a, b, (a + b) % 130] for a in range(130)
                                                       for b in range(130)]}, None, {}),
    # a query's bound is a number of stages to scan: on a map that is not
    # injective each stage is pushed and charged, its entries growing
    *[(_QUERIES, {"kind": "bratteli", "stationary": True, "matrices": [[[m, m], [m, m]]]},
       [query], {}) for m in (1, 1000) for query in (
          {"op": "equal", "a": {"stage": 0, "vector": [1, 0]},
           "b": {"stage": 0, "vector": [2, 0]}, "bound": 10 ** 8},
          {"op": "divisible", "stage": 0, "vector": [1, 0], "q": 7, "bound": 10 ** 8})],
], ids=["module-rank-huge", "dense-module-verify-theta", "dense-module-skew-les",
        "skew-window-huge", "skew-window-large", "cap-malformed",
        "af-depth-huge", "af-levels-huge", "odometer-depth-huge", "pair-fiber-digits",
        "dimension-levels-large", "dimension-levels-huge", "verify-theta-count-huge",
        "odometer-points-over-depths", "group-table-large", "action-table-large",
        "explicit-triples-large", "query-equal-bound-huge", "query-divisible-bound-huge",
        "query-equal-bound-huge-entries", "query-divisible-bound-huge-entries"])
def test_oversize_inputs_exit_2_before_building(argv, model, aux, env, tmp_path):
    files = {"MODEL": tmp_path / "model.json", "AUX": tmp_path / "aux.json"}
    for slot, payload in (("MODEL", model), ("AUX", aux)):
        files[slot].write_text(json.dumps(payload), encoding="utf-8")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    res = subprocess.run([sys.executable, "-m", "groupoidal.cli"]
                         + [str(files[a]) if a in files else a for a in argv],
                         capture_output=True, text=True, timeout=5,
                         env={**os.environ, **env}, preexec_fn=limit)
    assert res.returncode == cli.USAGE_ERROR, res.stderr[-300:]
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert len(res.stderr) <= 301, res.stderr[:300]


def test_running_out_of_memory_exits_2_with_one_line(tmp_path):
    # uhf3 at one level and depth 12 is admitted by the default cap, but
    # its 3^13-row matrices do not fit in 1 GiB: the MemoryError is one
    # error line and exit 2, not a traceback and exit 1
    path = tmp_path / "uhf3.json"
    path.write_text(json.dumps({"kind": "bratteli", "stationary": True, "p": 3,
                                "levels": 4}), encoding="utf-8")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    env = {k: v for k, v in os.environ.items() if k != "GROUPOIDAL_CAP"}
    res = subprocess.run([sys.executable, "-m", "groupoidal.cli", "af-cohomology", str(path),
                          "--levels", "1", "--depth", "12"], capture_output=True, text=True,
                         timeout=120, env=env, preexec_fn=limit)
    assert res.returncode == cli.USAGE_ERROR, res.stderr[-300:]
    assert res.stdout == ""
    assert res.stderr.startswith("error: MemoryError: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr and "Exception ignored" not in res.stderr


@pytest.mark.parametrize("copies", [1, 2])
def test_the_queries_of_one_command_share_one_budget(copies, tmp_path, capsys, monkeypatch):
    # one equal query scanning 5000 stages of [[1, 1], [1, 1]] charges
    # 1,582,840 entries of work, inside the default cap; two pass it together
    monkeypatch.delenv("GROUPOIDAL_CAP", raising=False)
    model, queries = tmp_path / "model.json", tmp_path / "queries.json"
    model.write_text(json.dumps({"kind": "bratteli", "stationary": True,
                                 "matrices": [[[1, 1], [1, 1]]]}), encoding="utf-8")
    queries.write_text(json.dumps([{"op": "equal", "a": {"stage": 0, "vector": [1, 0]},
                                    "b": {"stage": 0, "vector": [2, 0]}, "bound": 5000}]
                                  * copies), encoding="utf-8")
    code = cli.main(["dimension-group", str(model), "--queries", str(queries),
                     "--format", "json"])
    captured = capsys.readouterr()
    if copies == 1:
        assert code == 0
        assert json.loads(captured.out)["queries"] == [
            {"op": "equal", "kind": "not_equal_up_to", "stage": 5000, "exact": False}]
    else:
        assert code == cli.USAGE_ERROR and captured.out == ""
        assert captured.err.startswith("error: DegreeTooLarge: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("cap", [None, "1000000000", str(10 ** 100)],
                         ids=["default-cap", "cap-1e9", "cap-1e100"])
def test_the_error_line_does_not_grow_with_the_flags_or_the_cap(cap, capsys, monkeypatch):
    if cap is None:
        monkeypatch.delenv("GROUPOIDAL_CAP", raising=False)
    else:
        monkeypatch.setenv("GROUPOIDAL_CAP", cap)
    big = str(10 ** 100)
    assert cli.main(["odometer", "--p", big, "--max-depth", big]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: DegreeTooLarge: ") and err.count("\n") == 1
    assert len(err) <= 300, err


def _exit_code_at_cap(cap, argv, capsys, monkeypatch):
    """The exit code of argv with the cap at `cap`; a refusal must be one
    DegreeTooLarge line."""
    monkeypatch.setenv("GROUPOIDAL_CAP", str(cap))
    code = cli.main(argv)
    err = capsys.readouterr().err
    if code == cli.USAGE_ERROR:
        assert err.startswith("error: DegreeTooLarge: ") and err.count("\n") == 1, err
    return code


def test_dimension_group_stages_are_refused_one_entry_past_the_cap(tmp_path, capsys,
                                                                    monkeypatch):
    # three stages of a rank-2 stationary tower, each a rank and a 2 x 2 map
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"kind": "bratteli", "stationary": True,
                                "matrices": [[[1, 1], [1, 0]]], "levels": 2}), encoding="utf-8")
    argv = ["dimension-group", str(path), "--levels", "2"]
    assert _exit_code_at_cap(3 * (1 + 4), argv, capsys, monkeypatch) == 0
    assert _exit_code_at_cap(3 * (1 + 4) - 1, argv, capsys, monkeypatch) == cli.USAGE_ERROR


def test_verify_theta_count_is_refused_one_entry_past_the_cap(capsys, monkeypatch):
    # the instances' nerve work, summed; each alone is far inside the cap
    rng = random.Random(1)
    work = []
    for _ in range(3):
        G = models.random_groupoid(rng)
        work.append(require_nerve_work(G, 2, models.random_module(G, rng).fiber_rank))
    assert 2 * max(work) < sum(work)
    argv = ["verify-theta", "--seed", "1", "--count", "3", "--max-degree", "1"]
    assert _exit_code_at_cap(sum(work), argv, capsys, monkeypatch) == 0
    assert _exit_code_at_cap(sum(work) - 1, argv, capsys, monkeypatch) == cli.USAGE_ERROR


def test_verify_theta_refuses_a_huge_count_before_drawing_an_instance(capsys, monkeypatch):
    # every instance costs at least (n + 1)^2 in each degree n <= 3, which
    # is charged for all 10^8 of them before the first is drawn
    drawn = []
    monkeypatch.setattr(models, "random_groupoid", lambda rng: drawn.append(rng))
    argv = ["verify-theta", "--seed", "1", "--count", str(10 ** 8)]
    assert _exit_code_at_cap(10 ** 8 * (1 + 4 + 9 + 16) - 1, argv, capsys,
                             monkeypatch) == cli.USAGE_ERROR
    assert drawn == []


def test_a_100_element_group_table_still_parses(tmp_path):
    # 100^3 associativity checks are inside the default cap
    path = tmp_path / "z100.json"
    path.write_text(json.dumps({"kind": "group", "cayley": cyclic_table(100)}), encoding="utf-8")
    G = cli.parse_input(str(path))
    assert G.n_arrows == 100 and G.n_units == 1


def _limited_cli(argv):
    """Run the CLI in a child with 1 GiB of address space and 5 s."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    return subprocess.run([sys.executable, "-m", "groupoidal.cli"] + argv,
                          capture_output=True, text=True, timeout=5, preexec_fn=limit)


_LOG_GRID = [-1, 1, 100, 10 ** 4, 10 ** 100]
_LOG_IDS = ["minus-1", "1", "1e2", "1e4", "1e100"]


# --max-degree of the commands that compute on the isotropy groups, on a log
# grid: an action model with orbits of one and two points, and a pair model
# of two orbits.  Inside the cap a value must finish, outside it the one
# error line must be short, in a child with bounded memory and time.
@pytest.mark.parametrize("value", _LOG_GRID, ids=_LOG_IDS)
@pytest.mark.parametrize("model", [
    {"kind": "action", "cayley": [[0, 1], [1, 0]], "perms": [[0, 1, 2, 3], [1, 0, 2, 3]]},
    {"kind": "pair", "fibers": [3, 2]},
], ids=["action", "pair"])
@pytest.mark.parametrize("command", ["homology", "cohomology"])
def test_max_degree_on_a_log_grid_exits_0_or_2(command, model, value, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    res = _limited_cli([command, str(path), "--max-degree", str(value)])
    assert res.returncode in (0, cli.USAGE_ERROR), res.stderr[-300:]
    assert res.stderr.count("\n") <= 1 and len(res.stderr) <= 301, res.stderr[:300]


# both integer flags of the odometer on the log grid, every pair of values:
# inside the cap the tower must finish, outside it the one error line must
# be short
@pytest.mark.parametrize("depth", _LOG_GRID, ids=[f"depth-{i}" for i in _LOG_IDS])
@pytest.mark.parametrize("p", _LOG_GRID, ids=[f"p-{i}" for i in _LOG_IDS])
def test_odometer_flags_on_a_log_grid_exit_0_or_2(p, depth):
    res = _limited_cli(["odometer", "--p", str(p), "--max-depth", str(depth)])
    assert res.returncode in (0, cli.USAGE_ERROR), res.stderr[-300:]
    assert res.stderr.count("\n") <= 1 and len(res.stderr) <= 301, res.stderr[:300]
    if res.returncode == cli.USAGE_ERROR:
        assert res.stdout == ""


# every integer flag of every subcommand on the log grid, one flag at a
# time with the others at working values: inside the cap the command must
# finish, outside it the one error line must be short, in a child with
# bounded memory and time.  The flags the two grids above do not cover run
# in tier 1 at 10^2, 10^4 and 10^100; the full grid, marked `grid`, runs in
# its own CI step.
_FLAG_MODELS = {"z2": {"kind": "group", "cayley": [[0, 1], [1, 0]]},
                "uhf2": {"kind": "bratteli", "stationary": True, "p": 2, "levels": 2},
                "bratteli2": {"kind": "bratteli", "matrices": [[[1, 1], [1, 0]]],
                              "stationary": True, "levels": 2}}
_FLAGS = [  # (id, argv with VALUE for the flag under test, in tier 1)
    ("homology-max-degree", ["homology", "z2", "--max-degree", "VALUE"], False),
    ("cohomology-max-degree", ["cohomology", "z2", "--max-degree", "VALUE"], False),
    ("verify-theta-max-degree", ["verify-theta", "--max-degree", "VALUE"], True),
    ("verify-theta-seed", ["verify-theta", "--seed", "VALUE"], True),
    ("verify-theta-count", ["verify-theta", "--count", "VALUE"], True),
    ("skew-les-window", ["skew-les", "z2", "--window", "VALUE", "--guard", "1"], True),
    ("skew-les-guard", ["skew-les", "z2", "--window", "8", "--guard", "VALUE"], True),
    ("skew-les-max-degree", ["skew-les", "z2", "--window", "6", "--guard", "2",
                             "--max-degree", "VALUE"], True),
    ("skew-les-cohomology-max-degree", ["skew-les", "z2", "--window", "6", "--guard", "2",
                                        "--mode", "cohomology", "--max-degree", "VALUE"], True),
    ("dimension-group-levels-uhf2", ["dimension-group", "uhf2", "--levels", "VALUE"], True),
    ("dimension-group-levels-bratteli2", ["dimension-group", "bratteli2", "--levels", "VALUE"],
     True),
    ("af-cohomology-levels", ["af-cohomology", "uhf2", "--levels", "VALUE", "--depth", "2"], True),
    ("af-cohomology-depth", ["af-cohomology", "uhf2", "--levels", "2", "--depth", "VALUE"], True),
    ("odometer-p", ["odometer", "--p", "VALUE", "--max-depth", "2"], False),
    ("odometer-max-depth", ["odometer", "--p", "2", "--max-depth", "VALUE"], False),
]


@pytest.mark.parametrize("argv, value", [
    pytest.param(argv, value, id=f"{name}-{value_id}",
                 marks=() if tier1 and value > 1 else pytest.mark.grid)
    for name, argv, tier1 in _FLAGS for value, value_id in zip(_LOG_GRID, _LOG_IDS)])
def test_integer_flags_on_a_log_grid_exit_0_or_2(argv, value, tmp_path):
    paths = {}
    for name, model in _FLAG_MODELS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(model), encoding="utf-8")
    res = _limited_cli([str(value) if a == "VALUE" else str(paths.get(a, a)) for a in argv])
    assert res.returncode in (0, cli.USAGE_ERROR), res.stderr[-300:]
    assert res.stderr.count("\n") <= 1 and len(res.stderr) <= 301, res.stderr[:300]
    if res.returncode == cli.USAGE_ERROR:
        assert res.stdout == ""


@pytest.mark.parametrize("p, depth", [(2, 13), (3, 8)])
def test_deep_odometer_towers_finish_with_the_closed_form_answer(p, depth):
    # each depth's id - P is the boundary of one p^d-cycle; its left
    # transform is read out of the engine's row-operation log, which stays
    # sparse where a tracked inverse fills a dense triangle
    res = _limited_cli(["odometer", "--p", str(p), "--max-depth", str(depth),
                        "--format", "json"])
    assert res.returncode == 0, res.stderr[-300:]
    doc = json.loads(res.stdout)
    z = {"free_rank": 1, "torsion": []}
    assert [e["depth"] for e in doc["depths"]] == list(range(1, depth + 1))
    for e in doc["depths"]:
        assert e["h0"] == z and e["h1"] == z
        first = e["depth"] == 1
        assert e["h0_connecting"] == (None if first else [[p]])
        assert e["h1_connecting"] == (None if first else [[1]])
    assert doc["stabilized_h1"] == z


def test_s3_homology_to_degree_5_fits_the_default_cap(tmp_path):
    # the isotropy resolution of S3 has 9 cells in degree 5 and 17 in degree
    # 6, where the nerve has 46656 strings, so the work fits the default cap
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"kind": "group", "cayley": _s3_table()}), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "GROUPOIDAL_CAP"}
    res = subprocess.run([sys.executable, "-m", "groupoidal.cli", "homology", str(path),
                          "--max-degree", "5", "--format", "json"],
                         capture_output=True, text=True, timeout=30, env=env)
    assert res.returncode == 0, res.stderr[-300:]
    groups = [(g["free_rank"], g["torsion"]) for g in json.loads(res.stdout)["groups"]]
    assert groups == [(1, []), (0, [2]), (0, []), (0, [6]), (0, []), (0, [2])]


def _s3_table():
    elements = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(a[b[x]] for x in range(3))] for b in elements] for a in elements]


def _cli_groups(argv):
    """The groups a whole CLI process prints at the default cap, which must
    exit 0 in under 2 s."""
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "groupoidal.cli"] + argv + ["--format", "json"],
                         capture_output=True, text=True, timeout=30,
                         env={k: v for k, v in os.environ.items() if k != "GROUPOIDAL_CAP"})
    assert res.returncode == 0, res.stderr[-300:]
    assert time.perf_counter() - start < 2.0, argv
    return [(g["free_rank"], g["torsion"]) for g in json.loads(res.stdout)["groups"]]


@pytest.mark.parametrize("group, degree", [("s3", 7), ("d4", 6), ("a4", 5), ("z5", 10)])
def test_isotropy_resolutions_reach_these_degrees_in_under_2_s(group, degree, tmp_path):
    # whole processes at the default cap; each answer is checked against
    # the other command by universal coefficients: for a finite group,
    # H^0 = Z, H^1 = 0 and H^{n+1} = H_n for n >= 1
    from test_resolution import A4, D4, S3
    table = {"s3": S3, "d4": D4, "a4": A4, "z5": [[(a + b) % 5 for b in range(5)]
                                                 for a in range(5)]}[group]
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "group", "cayley": table}), encoding="utf-8")
    chains = _cli_groups(["homology", str(path), "--max-degree", str(degree)])
    cochains = _cli_groups(["cohomology", str(path), "--max-degree", str(degree)])
    assert chains[0] == cochains[0] == (1, []) and cochains[1] == (0, [])
    assert cochains[2:] == chains[1:-1]
    if group == "s3":  # Z/2, 0, Z/6, 0 repeating
        assert chains[1:] == [[(0, [2]), (0, []), (0, [6]), (0, [])][(n - 1) % 4]
                              for n in range(1, degree + 1)]
    if group == "z5":
        assert chains[1:] == [(0, [5] if n % 2 else []) for n in range(1, degree + 1)]


# one valid model file of each kind and a command that takes it
_VALID_MODELS = [
    (["homology", "MODEL", "--max-degree", "1"],
     {"kind": "explicit", "arrows": 2, "units": [0], "src": [0, 0], "rng": [0, 0],
      "inv": [0, 1], "compose": _Z2_COMPOSE}),
    (["homology", "MODEL", "--max-degree", "1"], _Z2),
    (["homology", "MODEL", "--max-degree", "1"], {"kind": "pair", "fibers": [2, 1]}),
    (["homology", "MODEL", "--max-degree", "1"],
     {"kind": "action", "cayley": [[0, 1], [1, 0]], "perms": [[0, 1], [1, 0]]}),
    (["dimension-group", "MODEL"], _UHF2),
    (["dimension-group", "MODEL"],
     {"kind": "bratteli", "stationary": True, "matrices": [[[2]]], "levels": 2}),
    (["dimension-group", "MODEL"], _TWO_STAGES),
]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=6)


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__  # str, list or dict


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.sampled_from(_VALID_MODELS), data=st.data())
def test_model_file_with_one_field_of_another_type_exits_0_or_2(case, data):
    argv, model = case
    name = data.draw(st.sampled_from(sorted(model)))
    value = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(model[name])))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**model, name: value}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([path if a == "MODEL" else a for a in argv])
    assert code in (0, cli.USAGE_ERROR)
    if code == cli.USAGE_ERROR:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
