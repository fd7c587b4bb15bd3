"""Byte-exact stdout of a fixed set of fast CLI commands.

Each case runs in a fresh working directory holding the input files written
by ``_write_inputs``; the expected exit code and stdout are what the CLI
printed when the table was recorded.  Long outputs are pinned by their
sha256.  After a deliberate output change, print the new table with
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root
and review the difference before pasting it in.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from sqflows.cli import main
from sqflows.flows import FlowError, evaluate_fgf
from sqflows.network import parse_network
from sqflows.semiring import EXACT_INT

BALANCED = "2 1\n1 3\n--\n1 2\n2 3\n"
UNBALANCED = "2 1\n1 2\n--\n1 3\n"
INT_WEIGHTS = "".join(f"{i},{j} {i * 3 + j - 4}\n" for i in range(1, 5) for j in range(1, i + 1))
POLY_WEIGHTS = "1,1 a\n2,1 b\n2,2 2·a·b\n3,1 c + 1\n3,2 a^2\n3,3 b + c\n"
# A signed factor that is no integer: an input error, not a variable named "-b".
SIGNED_WEIGHTS = "1,1 a\n2,1 -b\n2,2 a\n3,1 b\n3,2 a\n3,3 b\n"
# A value that is no integer, on the third line of the file.
BAD_WEIGHTS = "1,1 1\n# the next value is no integer\n2,1 x\n"
# Terminals out of boundary order: the only disjoint system pairs a -> d, b -> c.
CROSSED = "vertex a\nvertex b\nvertex c\nvertex d\nedge a d\nedge b c\nsources a b\nsinks c d\n"
# A dead end x after source a, on no source -> sink path: its weight may be
# left out.
DEAD_END = ("vertex a\nvertex b\nvertex c\nvertex d\nvertex x\nedge a b\nedge a c\nedge b d\nedge c d\nedge a x\n"
            "sources a b\nsinks c d\n")
DEAD_END_WEIGHTS = "a 2\nb 3\nc 5\nd 7\n"
# halfgrid:3 without the weights of 2,1 and 3,1, both on source -> sink paths.
PARTIAL_WEIGHTS = "1,1 1\n2,2 1\n3,3 1\n3,2 1\n"

# Pair files made by `gen-family`, and a copy of each with the last
# right-hand subset dropped, which is unbalanced.
GENERATED = {
    "quintuple": ["gen-family", "quintuple"],
    "interval": ["gen-family", "interval-exchange", "-p", "3", "-q", "2", "--pi0", "1,2"],
}

# The union of two generated pairs at (4, 3) repeats members on both sides;
# its copy drops one repeated left-hand member, which leaves it unbalanced.
UNION = [
    ["gen-family", "tail-fixed", "-p", "4", "-q", "3", "--tail", "6"],
    ["gen-family", "groebner", "-p", "4", "-q", "3", "--B", "1,4,5,6"],
]

CASES = [
    # README examples
    "check-balance pair.txt",
    "enumerate-matchings -p 2 -q 1 -A 1,3",
    "verify family:triple --mode symbolic --network halfgrid:4",
    "verify pair.txt --mode tropical --trials 25 --seed 7",
    "counterexample unbalanced.txt --network-out gadget.net",
    "gen-family interval-exchange -p 3 -q 2 --pi0 1,2",
    "laurent -n 3 -A 1,3",
    "lindstrom --network halfgrid:3",
    "flows --network halfgrid:3 -I 1,3",
    "doubleflow-audit --network halfgrid:4 -I 1,4 -J 2,4 --phi 0 --phi-prime 1",
    # verify in every mode, passing and failing
    "verify family:quadruple --mode symbolic --network halfgrid:5",
    "verify family:quadruple --mode symbolic --network halfgrid:5 --format json",
    "verify family:quintuple --mode symbolic --network halfgrid:9",
    "verify family:quintuple --mode numeric --network halfgrid:6 --trials 4 --seed 3",
    "verify family:quintuple --mode numeric --network halfgrid:6 --trials 4 --seed 3 --format json",
    "verify family:triple --mode tropical --network halfgrid:5 --trials 6 --seed 1",
    "verify family:triple --mode tropical --network halfgrid:5 --trials 6 --seed 1 --format json",
    "verify unbalanced.txt --mode symbolic",
    "verify unbalanced.txt --mode numeric --trials 5 --seed 2",
    "verify unbalanced.txt --mode tropical --trials 5 --seed 2 --format json",
    # the path matrix
    "lindstrom --network halfgrid:4 --carrier int --weights int.w",
    "lindstrom --network halfgrid:4 --carrier int --weights int.w --format json",
    "lindstrom --network halfgrid:3 --carrier polyint",
    "lindstrom --network halfgrid:3 --carrier polyint --weights poly.w",
    "lindstrom --network halfgrid:3 --carrier polyint --weights poly.w --format json",
    "lindstrom --network halfgrid:3 --carrier polyint --weights signed.w",
    "lindstrom --network dead-end.net --weights dead-end.w",
    "lindstrom --network dead-end.net --weights dead-end.w --format json",
    # listings
    "flows --network halfgrid:5 -I 1,3,5",
    "flows --network halfgrid:5 -I 1,3,5 --format json",
    "flows --network halfgrid:5 -I 2,4 -J 1,3",
    "flows --network halfgrid:5 -I 4 -J 2 --format json",
    "doubleflow-audit --network halfgrid:6 -I 1,3,6 -J 2,4 --phi 1 --phi-prime 1",
    "doubleflow-audit --network halfgrid:6 -I 1,4,6 -J 2,3,5 --phi 1 --phi-prime 2",
    "doubleflow-audit --network halfgrid:6 -I 1,3,5 -J 2,4,6 --phi 3 --phi-prime 1 --format json",
    "laurent -n 5 -A 1,3,4",
    "laurent -n 5 -A 2,4 --format json",
    # large listings: 32 768 flag flows, 18 522 (I,J)-flows, 2 520 and
    # 32 768 monomials (the last one eight blocks of the writer)
    "flows --network halfgrid:12 -I 1,3,5,7,9,11",
    "flows --network halfgrid:12 -I 1,3,5,7,9,11 --format json",
    "flows --network halfgrid:11 -I 1,2,4,8,10,11 -J 1,2,3,6,7,10",
    "laurent -n 10 -A 1,3,5,7,10 --format json",
    "laurent -n 11 -A 1,3,5,7,9,11",
    "lindstrom --network halfgrid:3 --weights bad.w",
    "flows --network crossed.net -I 1,2",
    "lindstrom --network crossed.net",
    # generated pairs
    "check-balance quintuple.txt",
    "check-balance quintuple-dropped.txt --format json",
    "check-balance interval.txt",
    "check-balance interval-dropped.txt",
    "counterexample quintuple-dropped.txt",
    "counterexample interval-dropped.txt --format json",
    # repeated members, and the scan order at (7, 6)
    "check-balance union.txt",
    "check-balance union.txt --format json",
    "check-balance union-dropped.txt",
    "check-balance union-dropped.txt --format json",
    "enumerate-matchings -p 7 -q 6 -A 1,3,5,7,9,11,13",
    "enumerate-matchings -p 7 -q 6 -A 2,3,5,7,9,11,13 --format json",
]

EXPECTED = {
    'check-balance pair.txt': (0, 'balanced\n'),
    'enumerate-matchings -p 2 -q 1 -A 1,3': (0, '(1,2)\n(2,3)\n'),
    'verify family:triple --mode symbolic --network halfgrid:4': (0, 'symbolic check on halfgrid:4: pass\n'),
    'verify pair.txt --mode tropical --trials 25 --seed 7': (0, 'tropical sweep on halfgrid:3: 50 instances pass\n'),
    'counterexample unbalanced.txt --network-out gadget.net': (0, 'witness: (1,2)\naugmented: (1,2) (3,4)\nlhs_sum: 0\nrhs_sum: 1\nP1P2: verified\nnetwork written to gadget.net\n'),
    'gen-family interval-exchange -p 3 -q 2 --pi0 1,2': (0, '3 2\n1 2 3\n2 4 5\n--\n1 4 5\n3 4 5\n'),
    'laurent -n 3 -A 1,3': (0, 'f[1..1]^1 f[2..2]^-1 f[2..3]^1\nf[1..2]^1 f[2..2]^-1 f[3..3]^1\n'),
    'lindstrom --network halfgrid:3': (0, '1 1 1\n0 1 2\n0 0 1\n'),
    'flows --network halfgrid:3 -I 1,3': (0, '1,1;3,1 2,1 2,2\n1,1;3,1 3,2 2,2\n'),
    'doubleflow-audit --network halfgrid:4 -I 1,4 -J 2,4 --phi 0 --phi-prime 1': (0, 'd(xi) = 0\nM(xi) = (1,2)\nN(xi) = 1\n'),
    'verify family:quadruple --mode symbolic --network halfgrid:5': (0, 'symbolic check on halfgrid:5: pass\n'),
    'verify family:quadruple --mode symbolic --network halfgrid:5 --format json': (0, '{"command": "verify", "data": {"mode": "symbolic", "network": "halfgrid:5", "pass": true}, "ok": true, "schema": 1}\n'),
    'verify family:quintuple --mode symbolic --network halfgrid:9': (0, 'symbolic check on halfgrid:9: pass\n'),
    'verify family:quintuple --mode numeric --network halfgrid:6 --trials 4 --seed 3': (0, 'numeric sweep on halfgrid:6: 12 instances pass\n'),
    'verify family:quintuple --mode numeric --network halfgrid:6 --trials 4 --seed 3 --format json': (0, '{"command": "verify", "data": {"checked": 12, "mode": "numeric", "network": "halfgrid:6"}, "ok": true, "schema": 1}\n'),
    'verify family:triple --mode tropical --network halfgrid:5 --trials 6 --seed 1': (0, 'tropical sweep on halfgrid:5: 12 instances pass\n'),
    'verify family:triple --mode tropical --network halfgrid:5 --trials 6 --seed 1 --format json': (0, '{"command": "verify", "data": {"checked": 12, "mode": "tropical", "network": "halfgrid:5"}, "ok": true, "schema": 1}\n'),
    'verify unbalanced.txt --mode symbolic': (1, 'symbolic check on halfgrid:3: FAIL\n'),
    'verify unbalanced.txt --mode numeric --trials 5 --seed 2': (1, 'numeric sweep on halfgrid:3: 7 of 15 instances FAIL\nfirst failure: carrier=int trial=0 X=[] Y=[1, 2, 3] lhs=3 rhs=-6\n'),
    'verify unbalanced.txt --mode tropical --trials 5 --seed 2 --format json': (1, '{"command": "verify", "data": {"checked": 10, "first_failure": {"X": [], "Y": [1, 2, 3], "carrier": "tropint", "lhs": "-8", "rhs": "-7", "trial": 0}, "mode": "tropical"}, "ok": false, "schema": 1}\n'),
    'lindstrom --network halfgrid:4 --carrier int --weights int.w': (0, '0 0 0 0\n0 12 240 4680\n0 0 336 15984\n0 0 0 11880\n'),
    'lindstrom --network halfgrid:4 --carrier int --weights int.w --format json': (0, '{"command": "lindstrom", "data": {"matrix": [["0", "0", "0", "0"], ["0", "12", "240", "4680"], ["0", "0", "336", "15984"], ["0", "0", "0", "11880"]]}, "ok": true, "schema": 1}\n'),
    'lindstrom --network halfgrid:3 --carrier polyint': (0, '1 1 1\n0 1 2\n0 0 1\n'),
    'lindstrom --network halfgrid:3 --carrier polyint --weights poly.w': (0, 'a a·b a·b + a·b·c\n0 2·a·b^2 2·a·b^2 + 2·a·b^2·c + 2·a^3·b + 2·a^3·b·c\n0 0 a^2·b + a^2·b·c + a^2·c + a^2·c^2\n'),
    'lindstrom --network halfgrid:3 --carrier polyint --weights poly.w --format json': (0, '{"command": "lindstrom", "data": {"matrix": [["a", "a\\u00b7b", "a\\u00b7b + a\\u00b7b\\u00b7c"], ["0", "2\\u00b7a\\u00b7b^2", "2\\u00b7a\\u00b7b^2 + 2\\u00b7a\\u00b7b^2\\u00b7c + 2\\u00b7a^3\\u00b7b + 2\\u00b7a^3\\u00b7b\\u00b7c"], ["0", "0", "a^2\\u00b7b + a^2\\u00b7b\\u00b7c + a^2\\u00b7c + a^2\\u00b7c^2"]]}, "ok": true, "schema": 1}\n'),
    'lindstrom --network halfgrid:3 --carrier polyint --weights signed.w': (2, ''),
    'lindstrom --network dead-end.net --weights dead-end.w': (0, '10 0\n112 21\n'),
    'lindstrom --network dead-end.net --weights dead-end.w --format json': (0, '{"command": "lindstrom", "data": {"matrix": [["10", "0"], ["112", "21"]]}, "ok": true, "schema": 1}\n'),
    'flows --network halfgrid:5 -I 1,3,5': (0, '1,1;3,1 2,1 2,2;5,1 4,1 4,2 3,2 3,3\n1,1;3,1 2,1 2,2;5,1 4,1 4,2 4,3 3,3\n1,1;3,1 2,1 2,2;5,1 5,2 4,2 3,2 3,3\n1,1;3,1 2,1 2,2;5,1 5,2 4,2 4,3 3,3\n1,1;3,1 2,1 2,2;5,1 5,2 5,3 4,3 3,3\n1,1;3,1 3,2 2,2;5,1 4,1 4,2 4,3 3,3\n1,1;3,1 3,2 2,2;5,1 5,2 4,2 4,3 3,3\n1,1;3,1 3,2 2,2;5,1 5,2 5,3 4,3 3,3\n'),
    'flows --network halfgrid:5 -I 1,3,5 --format json': (0, '{"command": "flows", "data": {"count": 8, "flows": ["1,1;3,1 2,1 2,2;5,1 4,1 4,2 3,2 3,3", "1,1;3,1 2,1 2,2;5,1 4,1 4,2 4,3 3,3", "1,1;3,1 2,1 2,2;5,1 5,2 4,2 3,2 3,3", "1,1;3,1 2,1 2,2;5,1 5,2 4,2 4,3 3,3", "1,1;3,1 2,1 2,2;5,1 5,2 5,3 4,3 3,3", "1,1;3,1 3,2 2,2;5,1 4,1 4,2 4,3 3,3", "1,1;3,1 3,2 2,2;5,1 5,2 4,2 4,3 3,3", "1,1;3,1 3,2 2,2;5,1 5,2 5,3 4,3 3,3"]}, "ok": true, "schema": 1}\n'),
    'flows --network halfgrid:5 -I 2,4 -J 1,3': (0, '2,1 1,1;4,1 3,1 3,2 3,3\n2,1 1,1;4,1 4,2 3,2 3,3\n2,1 1,1;4,1 4,2 4,3 3,3\n'),
    'flows --network halfgrid:5 -I 4 -J 2 --format json': (0, '{"command": "flows", "data": {"count": 3, "flows": ["4,1 3,1 2,1 2,2", "4,1 3,1 3,2 2,2", "4,1 4,2 3,2 2,2"]}, "ok": true, "schema": 1}\n'),
    'doubleflow-audit --network halfgrid:6 -I 1,3,6 -J 2,4 --phi 1 --phi-prime 1': (0, 'd(xi) = 0\nM(xi) = (2,3) (4,5)\nN(xi) = 1\n'),
    'doubleflow-audit --network halfgrid:6 -I 1,4,6 -J 2,3,5 --phi 1 --phi-prime 2': (0, 'd(xi) = 1\nM(xi) = (1,2) (3,4) (5,6)\nN(xi) = 2\n'),
    'doubleflow-audit --network halfgrid:6 -I 1,3,5 -J 2,4,6 --phi 3 --phi-prime 1 --format json': (0, '{"command": "doubleflow-audit", "data": {"count": 2, "d": 1, "matching": [[1, 2], [3, 4], [5, 6]]}, "ok": true, "schema": 1}\n'),
    'laurent -n 5 -A 1,3,4': (0, 'f[1..1]^1 f[2..2]^-1 f[2..4]^1\nf[1..2]^1 f[2..2]^-1 f[2..3]^-1 f[2..4]^1 f[3..3]^1\nf[1..3]^1 f[2..3]^-1 f[3..4]^1\n'),
    'laurent -n 5 -A 2,4 --format json': (0, '{"command": "laurent", "data": {"monomials": [[[2, 2, 1], [3, 3, -1], [3, 4, 1]], [[2, 3, 1], [3, 3, -1], [4, 4, 1]]]}, "ok": true, "schema": 1}\n'),
    'flows --network halfgrid:12 -I 1,3,5,7,9,11': (0, 'sha256:e1b9515333ab27fb44600ca9c8a355c8cd9485290133305dfef6527fe0b27ce4'),
    'flows --network halfgrid:12 -I 1,3,5,7,9,11 --format json': (0, 'sha256:bc981e342c6786ce3cae0a7f96fd71a02b8cdc139a929dbe7a661fca7f74d11c'),
    'flows --network halfgrid:11 -I 1,2,4,8,10,11 -J 1,2,3,6,7,10': (0, 'sha256:0277987db0f7a0aa749a0cba4fe541eea25278b382a4bbb071a485c4c371b5ef'),
    'laurent -n 10 -A 1,3,5,7,10 --format json': (0, 'sha256:94e3665dd5e55cd1316ab94d0cc42f78b79fa686f87542fa2344e55fe7dca56d'),
    'laurent -n 11 -A 1,3,5,7,9,11': (0, 'sha256:e167e8b37a854ce2e04e42ca7da92ab43a30f4d00bf8f8bf2d5e980eb63c268a'),
    'lindstrom --network halfgrid:3 --weights bad.w': (2, ''),
    'flows --network crossed.net -I 1,2': (2, ''),
    'lindstrom --network crossed.net': (2, ''),
    'check-balance quintuple.txt': (0, 'balanced\n'),
    'check-balance quintuple-dropped.txt --format json': (1, '{"command": "check-balance", "data": {"balanced": false, "lhs_count": 1, "rhs_count": 0, "witness": [[1, 2], [4, 5]]}, "ok": false, "schema": 1}\n'),
    'check-balance interval.txt': (0, 'balanced\n'),
    'check-balance interval-dropped.txt': (1, 'unbalanced witness: (1,4) (2,3)\n'),
    'counterexample quintuple-dropped.txt': (0, 'sha256:9488f1c8f37a996e76f6aa8f4f359a1e034903cf46ac3e5e7d5348b10c928d8d'),
    'counterexample interval-dropped.txt --format json': (0, 'sha256:bd3512eb223d1728bb6b784e34d363b9cd3cf88bc45939ba413845010fa74c1a'),
    'check-balance union.txt': (0, 'balanced\n'),
    'check-balance union.txt --format json': (0, '{"command": "check-balance", "data": {"balanced": true}, "ok": true, "schema": 1}\n'),
    'check-balance union-dropped.txt': (1, 'unbalanced witness: (2,3) (4,5) (6,7)\n'),
    'check-balance union-dropped.txt --format json': (1, '{"command": "check-balance", "data": {"balanced": false, "lhs_count": 3, "rhs_count": 4, "witness": [[2, 3], [4, 5], [6, 7]]}, "ok": false, "schema": 1}\n'),
    'enumerate-matchings -p 7 -q 6 -A 1,3,5,7,9,11,13': (0, 'sha256:88e057644dc550be17dc63150a4089b99d8026ed9559ca488a7eb6a892c8b2ac'),
    'enumerate-matchings -p 7 -q 6 -A 2,3,5,7,9,11,13 --format json': (0, 'sha256:bbbc9324a156681764612cb9fbf829f9722704f7d92470fc91ea60fd2a6088eb'),
}


def _digest(out: str) -> str:
    return out if len(out) <= 400 else "sha256:" + hashlib.sha256(out.encode()).hexdigest()


def _run(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _write_inputs(directory: Path) -> None:
    files = {"pair.txt": BALANCED, "unbalanced.txt": UNBALANCED, "int.w": INT_WEIGHTS, "poly.w": POLY_WEIGHTS,
             "signed.w": SIGNED_WEIGHTS, "bad.w": BAD_WEIGHTS, "crossed.net": CROSSED,
             "dead-end.net": DEAD_END, "dead-end.w": DEAD_END_WEIGHTS, "partial.w": PARTIAL_WEIGHTS}
    for name, argv in GENERATED.items():
        out = _run(argv)[1]
        files[f"{name}.txt"] = out
        files[f"{name}-dropped.txt"] = "".join(out.splitlines(keepends=True)[:-1])
    left, right = [], []
    for argv in UNION:
        header, *lines = _run(argv)[1].splitlines(keepends=True)
        cut = lines.index("--\n")
        left += lines[:cut]
        right += lines[cut + 1:]
    files["union.txt"] = "".join([header, *left, "--\n", *right])
    repeated = next(line for line in left if left.count(line) > 1)
    left.remove(repeated)
    files["union-dropped.txt"] = "".join([header, *left, "--\n", *right])
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("command", CASES)
def test_cli_stdout_unchanged(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    code, out = _run(command.split())
    assert (code, _digest(out)) == EXPECTED[command]


def test_bad_weight_names_its_vertex_line_and_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = _run("lindstrom --network halfgrid:3 --weights bad.w".split())
    message = "error: invalid literal for int() with base 10: 'x' (vertex '2,1' on line 3 of 'bad.w')\n"
    assert (code, out, err.getvalue()) == (2, "", message)


def test_missing_weights_name_the_first_in_topological_order(tmp_path, monkeypatch):
    # 3,1 precedes 2,1 in the topological order of halfgrid:3
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = _run("lindstrom --network halfgrid:3 --weights partial.w".split())
    assert (code, out, err.getvalue()) == (2, "", "error: weighting is missing vertex '3,1'\n")


@pytest.mark.parametrize(
    "command",
    ["flows --network crossed.net -I 1,2", "lindstrom --network crossed.net",
     "doubleflow-audit --network crossed.net -I 1,2 -J 1"],
)
def test_crossed_network_names_the_pairing(command, tmp_path, monkeypatch):
    # the CLI's error is the library's, behind "error: "
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = _run(command.split())
    message = (
        "error: invalid network: crossed pairing: s1 -> t2 and s2 -> t1 have vertex-disjoint paths "
        "(a -> d, b -> c)\n"
    )
    assert (code, out, err.getvalue()) == (2, "", message)
    with pytest.raises(FlowError) as raised:
        evaluate_fgf(parse_network(CROSSED), {}, {1, 2}, EXACT_INT)
    assert f"error: {raised.value}\n" == message


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _write_inputs(Path(tmp))
        rows = []
        for command in CASES:
            code, out = _run(command.split())
            rows.append(f"    {command!r}: ({code}, {_digest(out)!r}),")
    print("EXPECTED = {\n" + "\n".join(rows) + "\n}")
