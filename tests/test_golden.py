"""Byte-exact `--format json` output of every subcommand on fixed inputs.

The expected stdout of each case is `tests/golden/<case>.json`.  Beyond the
groups, these outputs carry data that depends on the elimination order:
divisibility witness vectors, connecting matrices and verification
booleans over generators, so an engine change that reorders pivots shows
up here even when every group stays the same.  Inputs live in
`tests/golden/inputs/` and are named relative to `tests/golden/`, since
the input path is part of the output.
"""

import json
import os

import pytest

from groupoidal import cli
from groupoidal.groupoids import DegreeTooLarge
from groupoidal.models import odometer_system

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "homology-s3": ["homology", "inputs/s3.json", "--max-degree", "3"],
    "homology-z4-mod2": ["homology", "inputs/z4.json", "--max-degree", "3",
                         "--coefficients", "Z/2"],
    "homology-explicit": ["homology", "inputs/explicit.json", "--max-degree", "3"],
    "cohomology-z2-sign": ["cohomology", "inputs/z2.json", "--module", "inputs/sign.json",
                           "--max-degree", "3"],
    "cohomology-explicit": ["cohomology", "inputs/explicit.json",
                            "--module", "inputs/explicit-module.json", "--max-degree", "2"],
    "cohomology-pair2-1": ["cohomology", "inputs/pair2-1.json", "--max-degree", "2"],
    "verify-theta-random": ["verify-theta", "--seed", "42", "--count", "3"],
    "verify-theta-s3": ["verify-theta", "inputs/s3.json", "--max-degree", "4"],
    "verify-theta-explicit": ["verify-theta", "inputs/explicit.json",
                              "--module", "inputs/explicit-module.json"],
    "skew-les-homology": ["skew-les", "inputs/pair3.json", "--cocycle",
                          "inputs/pair3-cocycle.json", "--window", "6", "--guard", "2",
                          "--mode", "homology"],
    "skew-les-cohomology": ["skew-les", "inputs/pair3.json", "--cocycle",
                            "inputs/pair3-cocycle.json", "--window", "6", "--guard", "2",
                            "--mode", "cohomology"],
    "skew-les-z2-zero": ["skew-les", "inputs/z2.json", "--cocycle", "zero",
                         "--window", "6", "--guard", "2", "--max-degree", "1"],
    "skew-les-s3-cohomology": ["skew-les", "inputs/s3.json", "--mode", "cohomology",
                               "--max-degree", "3", "--guard", "1", "--window", "2"],
    "dimension-group-uhf6": ["dimension-group", "inputs/uhf6.json",
                             "--queries", "inputs/uhf6-queries.json"],
    "dimension-group-bratteli2": ["dimension-group", "inputs/bratteli2.json",
                                  "--queries", "inputs/bratteli2-queries.json"],
    "af-cohomology-uhf2": ["af-cohomology", "inputs/uhf2.json", "--levels", "3",
                           "--depth", "3"],
    "odometer-2": ["odometer", "--p", "2", "--max-depth", "4"],
    "odometer-3": ["odometer", "--p", "3", "--max-depth", "3"],
    "z-action": ["z-action", "--perm", "3,0,1,2,5,4,6"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_json_output(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = cli.main(CASES[case] + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    with open(os.path.join(GOLDEN, f"{case}.json"), "rb") as fh:
        assert out.encode() == fh.read()


def _json_stdout(argv, capsys):
    code = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_odometer_connecting_matrices_at_every_admitted_depth(p, capsys, monkeypatch):
    # refinement multiplies H_0 = Z by p and fixes H_1 = Z, whatever the
    # pivot order; the deepest tower is the last one the default cap admits
    monkeypatch.delenv("GROUPOIDAL_CAP", raising=False)
    depth = 1
    try:
        while True:
            odometer_system(p, depth + 1)
            depth += 1
    except DegreeTooLarge:
        pass
    doc = _json_stdout(["odometer", "--p", str(p), "--max-depth", str(depth)], capsys)
    assert [e["depth"] for e in doc["depths"]] == list(range(1, depth + 1))
    for e in doc["depths"][1:]:
        assert e["h0_connecting"] == [[p]] and e["h1_connecting"] == [[1]]


def test_dimension_group_witnesses_divide_the_pushed_vectors(capsys, monkeypatch):
    # q * x = M^(t - s) * v for a witness x at stage t of the query (s, v, q),
    # M the stationary stage map of the input, with plain integer lists
    monkeypatch.chdir(GOLDEN)
    with open("inputs/bratteli2.json", encoding="utf-8") as fh:
        (M,) = json.load(fh)["matrices"]
    with open("inputs/bratteli2-queries.json", encoding="utf-8") as fh:
        queries = json.load(fh)
    doc = _json_stdout(["dimension-group", "inputs/bratteli2.json",
                        "--queries", "inputs/bratteli2-queries.json"], capsys)
    witnesses = 0
    for query, answer in zip(queries, doc["queries"], strict=True):
        if answer["kind"] != "witness":
            continue
        v = query["vector"]
        for _ in range(answer["stage"] - query["stage"]):
            v = [sum(a * b for a, b in zip(row, v)) for row in M]
        assert [query["q"] * x for x in answer["vector"]] == v
        witnesses += 1
    assert witnesses
