"""Byte-exact `--format json` output of every subcommand on fixed inputs.

The expected stdout of each case is `tests/golden/<case>.json`.  Beyond the
groups, these outputs carry data that depends on the elimination order:
divisibility witness vectors, connecting matrices and verification
booleans over generators, so an engine change that reorders pivots shows
up here even when every group stays the same.  Inputs live in
`tests/golden/inputs/` and are named relative to `tests/golden/`, since
the input path is part of the output.
"""

import os

import pytest

from groupoidal import cli

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
