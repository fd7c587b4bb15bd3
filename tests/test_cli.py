import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflows.cli import _COMMANDS, _FORMAT, _read, build_parser, main
from sqflows.flows import list_flows
from sqflows.laurent import laurent_expand
from sqflows.matchings import parse_collection_pair
from sqflows.network import PlanarNetwork, build_half_grid, parse_network, validate, write_network

BALANCED = "2 1\n1 3\n--\n1 2\n2 3\n"
UNBALANCED = "2 1\n1 2\n--\n1 3\n"


@pytest.fixture
def pair_files(tmp_path):
    good = tmp_path / "balanced.txt"
    good.write_text(BALANCED)
    bad = tmp_path / "unbalanced.txt"
    bad.write_text(UNBALANCED)
    return str(good), str(bad)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_balance(pair_files, capsys):
    good, bad = pair_files
    code, out, _ = run(capsys, ["check-balance", good])
    assert code == 0
    assert out.strip() == "balanced"
    code, out, _ = run(capsys, ["check-balance", bad])
    assert code == 1
    assert out.strip() == "unbalanced witness: (1,2)"


def test_check_balance_deep_pair(tmp_path, capsys):
    member = " ".join(str(k) for k in range(1, 1201))
    pair = tmp_path / "deep.txt"
    pair.write_text(f"1200 1\n{member}\n--\n{member}\n")
    code, out, _ = run(capsys, ["check-balance", str(pair)])
    assert (code, out) == (0, "balanced\n")


def test_check_balance_json(pair_files, capsys):
    good, _ = pair_files
    code, out, _ = run(capsys, ["check-balance", good, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "check-balance"
    assert payload["ok"] is True
    assert payload["data"]["balanced"] is True


def test_input_error_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    code, _, err = run(capsys, ["check-balance", missing])
    assert code == 2
    assert "error:" in err
    mangled = tmp_path / "bad.txt"
    mangled.write_text("not a pair file\n")
    code, _, err = run(capsys, ["check-balance", str(mangled)])
    assert code == 2


def test_enumerate_matchings(capsys):
    code, out, _ = run(capsys, ["enumerate-matchings", "-p", "2", "-q", "1", "-A", "1,3"])
    assert code == 0
    assert out.splitlines() == ["(1,2)", "(2,3)"]


def test_verify_symbolic(capsys):
    code, out, _ = run(capsys, ["verify", "family:triple", "--mode", "symbolic"])
    assert code == 0
    assert "pass" in out
    code, out, _ = run(
        capsys, ["verify", "family:quadruple", "--mode", "symbolic", "--network", "halfgrid:4"]
    )
    assert code == 0


def test_verify_symbolic_fails_on_unbalanced(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(UNBALANCED)
    # the half-grid also separates this pair symbolically
    code, out, _ = run(capsys, ["verify", str(pair), "--mode", "symbolic"])
    assert code == 1
    assert "FAIL" in out


def test_verify_numeric_and_tropical(capsys):
    for mode in ("numeric", "tropical"):
        code, out, _ = run(
            capsys,
            ["verify", "family:triple", "--mode", mode, "--trials", "4", "--seed", "3"],
        )
        assert code == 0
        assert "pass" in out


def test_verify_numeric_fails_on_unbalanced(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(UNBALANCED)
    code, out, _ = run(
        capsys, ["verify", str(pair), "--mode", "numeric", "--trials", "8", "--seed", "0"]
    )
    assert code == 1
    assert "first failure" in out


def test_verify_jobs_output_identical(capsys):
    argv = ["verify", "family:triple", "--mode", "numeric", "--trials", "6", "--seed", "1"]
    _, out1, _ = run(capsys, argv + ["--jobs", "1"])
    _, out2, _ = run(capsys, argv + ["--jobs", "4"])
    assert out1 == out2


@pytest.mark.parametrize("option", ["--seed", "--jobs"])
def test_seed_and_jobs_belong_to_verify(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flows", "--network", "halfgrid:3", "-I", "1", option, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_deterministic(capsys):
    argv = ["verify", "family:quintuple", "--mode", "tropical", "--trials", "5", "--seed", "9"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_counterexample_command(pair_files, tmp_path, capsys):
    _, bad = pair_files
    out_file = tmp_path / "gadget.net"
    code, out, _ = run(capsys, ["counterexample", bad, "--network-out", str(out_file)])
    assert code == 0
    assert "witness: (1,2)" in out
    assert "lhs_sum: 0" in out and "rhs_sum: 1" in out
    net = parse_network(out_file.read_text())
    assert validate(net) == []
    # balanced input is an input error
    good, _ = pair_files
    code, _, err = run(capsys, ["counterexample", good])
    assert code == 2


def test_counterexample_network_out_unwritable(pair_files, tmp_path, capsys):
    _, bad = pair_files
    target = str(tmp_path / "missing" / "gadget.net")
    code, out, err = run(capsys, ["counterexample", bad, "--network-out", target])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write network {target!r}")
    good, _ = pair_files
    code, out, err = run(capsys, ["counterexample", good])
    assert (code, out, err) == (2, "", "error: pair is balanced; no counterexample exists\n")


def test_gen_family_pi0_out_of_range(capsys):
    # 0 and negative indices must not wrap around to the last arcs
    for index in ("0", "-1", "3"):
        argv = ["gen-family", "interval-exchange", "-p", "3", "-q", "2", "--pi0", index]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: --pi0 indices must lie in 1..2\n"


def test_verify_trials_below_one(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(UNBALANCED)
    for mode in ("numeric", "tropical"):
        for trials in ("0", "-2"):
            code, out, err = run(capsys, ["verify", str(pair), "--mode", mode, "--trials", trials])
            assert (code, out) == (2, "")
            assert err == "error: --trials must be at least 1\n"
    # symbolic mode does not read --trials
    code, out, _ = run(capsys, ["verify", "family:triple", "--mode", "symbolic", "--trials", "0"])
    assert code == 0 and "pass" in out


def test_gen_family_roundtrips(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen-family", "triple"])
    assert code == 0
    lhs, rhs = parse_collection_pair(out)
    assert lhs.members == ((1, 3),)
    code, out, _ = run(
        capsys, ["gen-family", "interval-exchange", "-p", "3", "-q", "2", "--pi0", "1"]
    )
    assert code == 0
    pair = tmp_path / "family.txt"
    pair.write_text(out)
    code, verdict, _ = run(capsys, ["check-balance", str(pair)])
    assert code == 0 and verdict.strip() == "balanced"
    code, out, _ = run(capsys, ["gen-family", "groebner", "-p", "2", "-q", "1", "--B", "2,3"])
    assert code == 0
    code, _, err = run(capsys, ["gen-family", "interval-exchange", "-p", "2", "-q", "1"])
    assert code == 2


def test_laurent_command(capsys):
    code, out, _ = run(capsys, ["laurent", "-n", "3", "-A", "1,3"])
    assert code == 0
    lines = out.splitlines()
    assert "f[1..1]^1 f[2..2]^-1 f[2..3]^1" in lines
    assert "f[1..2]^1 f[2..2]^-1 f[3..3]^1" in lines


def test_lindstrom_command(capsys):
    code, out, _ = run(capsys, ["lindstrom", "--network", "halfgrid:3"])
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["1", "1", "1"], ["0", "1", "2"], ["0", "0", "1"]]


def test_lindstrom_carrier_errors(capsys):
    code, _, err = run(capsys, ["lindstrom", "--network", "halfgrid:2", "--carrier", "nat"])
    assert code == 2
    assert "ring" in err
    code, _, err = run(capsys, ["lindstrom", "--network", "halfgrid:2", "--carrier", "bogus"])
    assert code == 2


def test_lindstrom_with_weights(tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1,1 2\n2,1 3\n2,2 5\n")
    code, out, _ = run(capsys, ["lindstrom", "--network", "halfgrid:2", "--weights", str(weights)])
    assert code == 0
    assert out.splitlines() == ["2 6", "0 15"]


def test_lindstrom_zero_denominator_weight(tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1,1 1/0\n")
    for carrier in ("troprat", "posrat"):
        argv = ["lindstrom", "--network", "halfgrid:2", "--weights", str(weights), "--carrier", carrier]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "error:" in err and "zero denominator" in err


def test_lindstrom_polyint_weight_exponent_below_one(tmp_path, capsys):
    weights = tmp_path / "w.txt"
    for value in ("a^0", "a^-1"):
        weights.write_text(f"1,1 {value}\n")
        argv = ["lindstrom", "--network", "halfgrid:2", "--weights", str(weights), "--carrier", "polyint"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "error:" in err and repr(value) in err


def test_flows_on_a_long_chain(tmp_path, capsys):
    # one path longer than the recursion limit
    names = [f"v{i}" for i in range(1500)]
    chain = tmp_path / "chain.net"
    chain.write_text(
        "".join(f"vertex {v}\n" for v in names)
        + "".join(f"edge {a} {b}\n" for a, b in zip(names, names[1:]))
        + "sources v0\nsinks v1499\n"
    )
    code, out, _ = run(capsys, ["flows", "--network", str(chain), "-I", "1"])
    assert (code, out) == (0, " ".join(names) + "\n")


def test_flows_command(capsys):
    code, out, _ = run(capsys, ["flows", "--network", "halfgrid:3", "-I", "1,3"])
    assert code == 0
    assert out.splitlines() == ["1,1;3,1 2,1 2,2", "1,1;3,1 3,2 2,2"]
    code, out, _ = run(capsys, ["flows", "--network", "halfgrid:3", "-I", "3", "-J", "1"])
    assert code == 0
    assert out.splitlines() == ["3,1 2,1 1,1"]


def test_doubleflow_audit(capsys):
    code, out, _ = run(
        capsys,
        ["doubleflow-audit", "--network", "halfgrid:4", "-I", "1,4", "-J", "2,4", "--phi", "0", "--phi-prime", "1"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("d(xi) = ")
    assert lines[1].startswith("M(xi) = ")
    assert lines[2].startswith("N(xi) = ")
    d = int(lines[0].split("=")[1])
    n = int(lines[2].split("=")[1])
    assert n == 2 ** d
    code, _, err = run(
        capsys,
        ["doubleflow-audit", "--network", "halfgrid:4", "-I", "1,4", "-J", "2,4", "--phi", "99"],
    )
    assert code == 2


def test_network_file_input(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text("vertex a\nvertex b\nedge a b\nsources a\nsinks b\n")
    code, out, _ = run(capsys, ["flows", "--network", str(net_file), "-I", "1"])
    assert code == 0
    assert out.strip() == "a b"
    bad = tmp_path / "cyclic.txt"
    bad.write_text("vertex a\nvertex b\nedge a b\nedge b a\nsources a\nsinks b\n")
    code, _, err = run(capsys, ["flows", "--network", str(bad), "-I", "1"])
    assert code == 2
    assert "cycle" in err


PARALLEL_EDGES = "vertex a\nvertex b\nvertex c\nvertex d\nedge a c\nedge b d\nsources a b\nsinks c d\n"


SELF_LOOP = "vertex a\nvertex b\nedge a a\nedge a b\nsources a\nsinks b\n"
P_BELOW_Q = "1 2\n1\n--\n2\n"
Q_ZERO = "2 0\n1 2\n1 2\n--\n1 2\n"
MALFORMED_POLY = "a \u00b7\nb x^\n"
ONE_SOURCE_TWO_SINKS = "vertex a\nvertex b\nvertex c\nedge a b\nedge a c\nsources a\nsinks b c\n"
# a vertex already named like the split copy of another
PRIMED = "vertex a\nvertex a'\nvertex b\nedge a a'\nedge a' b\nsources a\nsinks b\n"


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["flows", "--network", "halfgrid:x", "-I", "1"], {}, "bad half-grid size"),
        (["flows", "--network", "{dir}/missing.net", "-I", "1"], {}, "cannot read network"),
        (["flows", "--network", "halfgrid:4", "-I", "1,a"], {}, "bad integer list '1,a'"),
        (["verify", "family:quintuple", "--network", "halfgrid:4"], {},
         "network has too few sources for this relation"),
        (["lindstrom", "--network", "halfgrid:2", "--weights", "{dir}/w.txt"], {"w.txt": "1,1\n"},
         "bad weight line '1,1'"),
        (["lindstrom", "--network", "halfgrid:2", "--weights", "{dir}/w.txt"], {"w.txt": "1,1 1\n2,1 1\n1,1 5\n"},
         "weights file repeats vertex '1,1'"),
        (["lindstrom", "--network", "halfgrid:2", "--weights", "{dir}/missing.txt"], {}, "cannot read weights"),
        (["doubleflow-audit", "--network", "{dir}/two.net", "-I", "2", "-J", "1"], {"two.net": PARALLEL_EDGES},
         "one of the index sets admits no flag flow"),
        (["gen-family", "tail-fixed", "-p", "2", "-q", "3"], {}, "family needs p >= q >= 1"),
        (["gen-family", "groebner", "-p", "2", "-q", "1", "--B", "1,9"], {}, "B must be a 2-subset of [3]"),
        (["gen-family", "groebner", "-p", "3", "-q", "2", "--B", "1,1,1"], {}, "B must be a 3-subset of [5]"),
        (["gen-family", "interval-exchange", "-p", "3", "-q", "2", "--pi0", "1,1"], {},
         "the exchanged arcs must be distinct"),
        (["gen-family", "tail-fixed", "-p", "3", "-q", "3", "--tail", "5,5"], {}, "Q must not repeat an element"),
        (["laurent", "-n", "3", "-A", "1,1,3"], {}, "repeated source index"),
        (["gen-family", "groebner", "-p", "2", "-q", "1", "--B", "2,3", "--d", "2"], {},
         "d = 2 does not satisfy b_d > complement_d"),
        (["flows", "--network", "halfgrid:0", "-I", "1"], {}, "half-grid needs n >= 1"),
        (["flows", "--network", "{dir}/loop.net", "-I", "1"], {"loop.net": SELF_LOOP},
         "invalid network: self-loop at a; cycle: a -> a"),
        (["check-balance", "{dir}/pair.txt"], {"pair.txt": P_BELOW_Q}, "relations need p >= q >= 1"),
        (["counterexample", "{dir}/pair.txt"], {"pair.txt": P_BELOW_Q}, "relations need p >= q >= 1"),
        (["verify", "{dir}/pair.txt"], {"pair.txt": P_BELOW_Q}, "relations need p >= q >= 1"),
        (["check-balance", "{dir}/pair.txt"], {"pair.txt": Q_ZERO}, "relations need p >= q >= 1"),
        (["counterexample", "{dir}/pair.txt"], {"pair.txt": Q_ZERO}, "relations need p >= q >= 1"),
        (["verify", "{dir}/pair.txt"], {"pair.txt": Q_ZERO}, "relations need p >= q >= 1"),
        (["lindstrom", "--network", "{dir}/ab.net", "--carrier", "polyint", "--weights", "{dir}/w.txt"],
         {"ab.net": "vertex a\nvertex b\nedge a b\nsources a\nsinks b\n", "w.txt": MALFORMED_POLY},
         "empty variable name in term '\u00b7'"),
        (["lindstrom", "--network", "{dir}/ab.net", "--carrier", "polyint", "--weights", "{dir}/w.txt"],
         {"ab.net": "vertex a\nvertex b\nedge a b\nsources a\nsinks b\n", "w.txt": "a x\nb -x\n"},
         "malformed factor '-x' in term '-x'"),
        (["lindstrom", "--network", "{dir}/fork.net"], {"fork.net": ONE_SOURCE_TWO_SINKS},
         "path matrix needs equally many sources and sinks"),
        (["enumerate-matchings", "-p", "2", "-q", "1", "-A", "1"], {}, "A must be a 2-subset of [3]"),
        (["enumerate-matchings", "-p", "0", "-q", "-1", "-A", ""], {}, "p and q must be nonnegative"),
        (["enumerate-matchings", "-p", "1", "-q", "-1", "-A", "1"], {}, "p and q must be nonnegative"),
        (["check-balance", "{dir}/pair.txt"], {"pair.txt": "2 1\n1 x\n--\n1 2\n"}, "bad subset line: '1 x'"),
        (["doubleflow-audit", "--network", "{dir}/primed.net", "-I", "1", "-J", "1"], {"primed.net": PRIMED},
         "vertex ids collide with split names"),
    ],
    ids=["halfgrid-size", "network-missing", "index-list", "too-few-sources",
         "weight-line", "weights-repeated", "weights-missing", "no-flag-flow",
         "tail-fixed-p-below-q", "groebner-B-outside", "groebner-B-repeated",
         "interval-exchange-pi0-repeated", "tail-fixed-Q-repeated", "laurent-A-repeated",
         "groebner-bad-d",
         "halfgrid-zero", "self-loop",
         "check-balance-p-below-q", "counterexample-p-below-q", "verify-p-below-q",
         "check-balance-q-zero", "counterexample-q-zero", "verify-q-zero",
         "polyint-malformed-term", "polyint-signed-factor",
         "lindstrom-unequal-terminals", "matchings-A-size", "matchings-q-negative",
         "matchings-q-negative-p-positive", "pair-bad-line", "split-name-collision"],
)
def test_input_error_cases(argv, files, message, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [arg.format(dir=tmp_path) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)


def _cli_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_closed_stdout_ends_cleanly():
    # a reader that stops early, like `| head -c 50`, is a normal end: exit 0
    # and nothing on stderr, neither a traceback nor a failed flush at exit,
    # for each streamed listing
    env = _cli_env()
    cases = [
        (["flows", "--network", "halfgrid:12", "-I", "1,3,5,7,9,11"],
         b"1,1;3,1 2,1 2,2;5,1 4,1 4,2 3,2 3,3;7,1 6,1 6,2 5,"),
        (["flows", "--network", "halfgrid:12", "-I", "1,3,5,7,9,11", "--format", "json"],
         b'{"command": "flows", "data": {"count": 32768, "flo'),
        (["laurent", "-n", "10", "-A", "1,3,5,7,10", "--format", "json"],
         b'{"command": "laurent", "data": {"monomials": [[[1,'),
    ]
    for argv, expected in cases:
        proc = subprocess.Popen(
            [sys.executable, "-m", "sqflows.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert head == expected
        assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [
        ["flows", "--network", "halfgrid:3", "-I", "1"],
        ["flows", "--network", "halfgrid:12", "-I", "1,3,5,7,9,11"],
        ["flows", "--network", "halfgrid:12", "-I", "1,3,5,7,9,11", "--format", "json"],
        ["laurent", "-n", "10", "-A", "1,3,5,7,10", "--format", "json"],
    ],
    ids=["final-flush", "while-printing", "flows-json", "laurent-json"],
)
def test_unwritable_stdout_is_an_input_error(argv):
    # a write that fails (no space left on the device) ends with exit 2 and
    # one error line, whether it fails at the final flush or while printing
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "sqflows.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            timeout=120,
        )
    assert proc.returncode == 2
    (line,) = proc.stderr.decode().splitlines()
    assert line.startswith("error: cannot write output: ")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_write_errors_leave_no_descriptor_open(pair_files, monkeypatch):
    # a reader that has gone points stdout at devnull; the descriptor opened
    # on devnull for that is closed again, call after call
    good, _ = pair_files

    def call():
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as out, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", out)
            assert main(["check-balance", good]) == 0

    call()
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        call()
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_listing_index_error_writes_nothing(fmt, capsys):
    # the listing is checked and its DAG built before the first write
    code, out, err = run(capsys, ["flows", "--network", "halfgrid:5", "-I", "1,9", "--format", fmt])
    assert (code, out) == (2, "")
    assert err == "error: source index 9 outside 1..5\n"


def test_out_of_memory_is_an_input_error(monkeypatch, capsys):
    # running out of memory mid-listing ends with exit 2 and one error line,
    # not a traceback and exit 1
    class Exhausted:
        def count(self):
            return 2

        def __iter__(self):
            yield ("a b",)
            raise MemoryError

    monkeypatch.setattr("sqflows.cli.list_flows", lambda *args: Exhausted())
    for fmt in ("text", "json"):
        code, _, err = run(capsys, ["flows", "--network", "halfgrid:3", "-I", "1", "--format", fmt])
        assert (code, err) == (2, "error: out of memory\n")


def test_internal_error_exits_3(monkeypatch, pair_files, capsys):
    # an unexpected exception is a fault of the program: exit 3 with its
    # traceback, never exit 1, which means a failing check
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("sqflows.cli.cmd_check_balance", broken)
    code, out, err = run(capsys, ["check-balance", pair_files[0]])
    assert (code, out) == (3, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: boom\n")


ODD_NAMES = ['"', "\\", "\u00e9", "\U0001d50f", "\x01"]


def _flows_payload(net, I, J):
    lines = [";".join(flow) for flow in list_flows(net, I, J, " ".join)]
    return {"schema": 1, "command": "flows", "ok": True, "data": {"count": len(lines), "flows": lines}}


def test_flows_json_matches_json_dumps(tmp_path, capsys):
    # vertex names that JSON escapes: a quote, a backslash, non-ASCII letters
    # inside and outside the BMP, and a control character
    grid = build_half_grid(4)
    rename = {v: f"{ODD_NAMES[k % len(ODD_NAMES)]}{v}{ODD_NAMES[(k + 2) % len(ODD_NAMES)]}"
              for k, v in enumerate(grid.vertices)}
    net = PlanarNetwork(
        tuple(rename[v] for v in grid.vertices),
        tuple((rename[a], rename[b]) for a, b in grid.edges),
        tuple(rename[v] for v in grid.sources),
        tuple(rename[v] for v in grid.sinks),
        planarity="declared",
    )
    path = tmp_path / "odd.net"
    path.write_text(write_network(net), encoding="utf-8")
    assert parse_network(path.read_text(encoding="utf-8")) == net and not validate(net)
    cases = [((1, 3), None), ((2, 3, 4), None), ((1, 2), (2, 4)), ((1, 2, 3), (1, 2, 4)),
             ((), None), ((4,), (1,)), ((1, 2), (3, 4))]
    for I, J in cases:
        argv = ["flows", "--network", str(path), "-I", ",".join(map(str, I)), "--format", "json"]
        if J is not None:
            argv += ["-J", ",".join(map(str, J))]
        code, out, _ = run(capsys, argv)
        payload = _flows_payload(net, I, J)
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True) + "\n"
        assert json.loads(out) == payload
    # the (1,2) -> (3,4) listing is empty
    assert json.loads(out)["data"] == {"count": 0, "flows": []}


def test_flows_json_with_more_sources_than_sinks(tmp_path, capsys):
    # three sources, two sinks: no flag flow for three sources
    path = tmp_path / "wide.net"
    path.write_text("vertex a\nvertex b\nvertex c\nvertex x\nvertex y\n"
                    "edge a x\nedge b x\nedge b y\nedge c y\nsources a b c\nsinks x y\n")
    code, out, _ = run(capsys, ["flows", "--network", str(path), "-I", "1,2,3", "--format", "json"])
    payload = {"schema": 1, "command": "flows", "ok": True, "data": {"count": 0, "flows": []}}
    assert (code, out) == (0, json.dumps(payload, sort_keys=True) + "\n")
    code, out, _ = run(capsys, ["flows", "--network", str(path), "-I", "1,2,3"])
    assert (code, out) == (0, "")


def test_laurent_json_matches_json_dumps(capsys):
    # every nonempty A of [n], n <= 6, against the payload as lists of lists
    for n in range(1, 7):
        for bits in range(1, 1 << n):
            A = [i + 1 for i in range(n) if bits >> i & 1]
            argv = ["laurent", "-n", str(n), "-A", ",".join(map(str, A)), "--format", "json"]
            code, out, _ = run(capsys, argv)
            monomials = [[list(iv) + [deg] for iv, deg in mono] for mono in laurent_expand(n, A).monomials]
            payload = {"schema": 1, "command": "laurent", "ok": True, "data": {"monomials": monomials}}
            assert code == 0
            assert out == json.dumps(payload, sort_keys=True) + "\n"
            assert json.loads(out) == payload


def test_help_exits_zero(capsys):
    parser = build_parser()
    (commands,) = [action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    for argv in (["--help"], *([name, "--help"] for name in commands)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("block", [1, 3])
def test_block_size_does_not_change_output(block, pair_files, monkeypatch, capsys):
    # 8, 3 and 0 flows, so blocks of 3 end part-full, full and never start
    good, bad = pair_files
    commands = [
        ["flows", "--network", "halfgrid:5", "-I", "1,3,5"],
        ["flows", "--network", "halfgrid:5", "-I", "2,4", "-J", "1,3"],
        ["flows", "--network", "halfgrid:5", "-I", "1,2", "-J", "3,4"],
        ["laurent", "-n", "5", "-A", "1,3,4"],
        ["laurent", "-n", "6", "-A", "1,3,5"],
        ["check-balance", good],
        ["check-balance", bad],
        ["lindstrom", "--network", "halfgrid:4"],
    ]
    runs = [argv + extra for argv in commands for extra in ([], ["--format", "json"])]
    expected = [run(capsys, argv) for argv in runs]
    monkeypatch.setattr("sqflows.cli._BLOCK", block)
    assert [run(capsys, argv) for argv in runs] == expected


COMMANDS = (
    "check-balance", "enumerate-matchings", "verify", "counterexample", "gen-family",
    "laurent", "lindstrom", "flows", "doubleflow-audit",
)
# help, unknown and abbreviated commands, extra arguments after a known
# command, a bad choice, a bad int and missing required arguments
PARSER_ARGV = [
    ["--help"], ["-h"], [],
    ["bogus"], ["check"], ["flow"], ["--format", "json"],
    *([name, "--help"] for name in COMMANDS),
    ["check-balance", "{good}", "--seed", "1"],
    ["check-balance", "{good}", "{bad}"],
    ["flows", "--network", "halfgrid:3", "-I", "1", "--jobs", "1"],
    ["check-balance", "{good}", "--format", "xml"],
    ["enumerate-matchings", "-p", "x", "-q", "1", "-A", "1"],
    ["enumerate-matchings", "-p", "2", "-A", "1"],
    ["check-balance"],
    ["check-balance", "{good}"],
    ["check-balance", "{bad}", "--form", "json"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _commands(parser):
    (commands,) = [action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return tuple(commands)


def test_command_parser_matches_the_full_parser(pair_files, capsys):
    # the full parser has the command table's commands, and an unrecognized
    # argument gets its error, with the usage line of every command
    assert _commands(build_parser()) == COMMANDS
    good, _ = pair_files
    code, _, err = _outcome(capsys, ["check-balance", good, "--seed", "1"])
    assert code == 2
    assert "{" + ",".join(COMMANDS) + "}" in err
    assert err.endswith("sqflows: error: unrecognized arguments: --seed 1\n")


def test_main_reads_sys_argv_and_builds_one_parser(pair_files, monkeypatch, capsys):
    # main(None) reads sys.argv and answers as main(argv) does; either way a
    # plain call builds no parser, and help, no arguments and leftovers the
    # full one
    good, _ = pair_files
    built = []

    def spy():
        built.append(None)
        return build_parser()

    monkeypatch.setattr("sqflows.cli.build_parser", spy)
    cases = [
        (["check-balance", good], []),
        (["check-balance", good, "--seed", "1"], [None]),
        (["flows", "--help"], [None]),
        (["--help"], [None]),
        ([], [None]),
    ]
    for argv, expected in cases:
        monkeypatch.setattr(sys, "argv", ["sqflows", *argv])
        outcomes = []
        for call in (argv, None):
            built.clear()
            outcomes.append(_outcome(capsys, call))
            assert built == expected
        assert outcomes[0] == outcomes[1]


# values for every argument: ints, choices, index lists, specs, the empty
# string, and a bad int, a bad choice and a negative value
GOOD_INTS = ("0", "3", "12")
TEXTS = ("halfgrid:3", "family:triple", "1,2", "", "json", "tropical", "groebner", "x")
BAD = ("1.5", "xml", "-3", "-1")


@st.composite
def call_argv(draw):
    """argv of one command: its arguments, each given or not with a good or
    bad value, the forms left to argparse mixed in, and the pieces shuffled."""
    name = draw(st.sampled_from(list(_COMMANDS) + ["check", "--help"]))
    arguments = (*_COMMANDS[name][1], _FORMAT) if name in _COMMANDS else (_FORMAT,)
    flags = [flag for flag, _ in arguments if flag.startswith("-")]
    pieces = []
    for flag, keywords in arguments:
        if draw(st.integers(0, 3)) == 0 and not keywords.get("required", not flag.startswith("-")):
            continue
        good = keywords.get("choices") or (GOOD_INTS if keywords.get("type") is int else TEXTS)
        value = draw(st.sampled_from(good) if draw(st.integers(0, 4)) else st.sampled_from(BAD + TEXTS))
        pieces.append([flag, value] if flag.startswith("-") else [value])
        if draw(st.integers(0, 9)) == 0:
            pieces.append(list(pieces[-1]))  # a repeat
    odd = [["-h"], ["--help"], ["--"], ["extra"], ["--bogus", "1"], ["--format=json"], ["-I1,2"]]
    odd += [[flag[:-1], "1"] for flag in flags if len(flag) > 3]  # abbreviations
    odd += [[flag] for flag in flags]  # a flag without its value
    pieces += draw(st.lists(st.sampled_from(odd), max_size=2))
    pieces = draw(st.permutations(pieces))
    return [name] + [token for piece in pieces for token in piece]


def _parsed(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return build_parser().parse_args(argv)
    except SystemExit:
        return None


@settings(max_examples=500, deadline=None)
@given(call_argv())
def test_reader_reads_as_argparse(argv):
    # the reader gives argparse's attributes or leaves the call to argparse;
    # it leaves no call to argparse that argparse accepts with exact flags
    # given once, each with a value, and no other token starting with "-"
    read, parsed = _read(argv), _parsed(argv)
    if read is not None:
        assert parsed is not None and vars(read) == vars(parsed)
        return
    flags = [flag for flag, _ in (*_COMMANDS.get(argv[0], ((), ()))[1], _FORMAT) if flag.startswith("-")]
    rest = argv[1:]
    plain = all(token in flags or not token.startswith("-") for token in rest)
    plain = plain and all(rest.count(flag) <= 1 for flag in flags)
    assert not (parsed is not None and plain), argv


def test_reader_leaves_a_repeated_option_to_argparse(capsys):
    # argparse checks every value of a repeated option, not only the last
    # one it keeps, so a bad first value is an error there: the reader must
    # not read past it
    for argv, message in (
        (["enumerate-matchings", "-p", "x", "-p", "2", "-q", "1", "-A", "1"], "argument -p: invalid int value: 'x'"),
        (["laurent", "-n", "3", "-A", "1", "--format", "xml", "--format", "text"], "argument --format: invalid choice: 'xml'"),
    ):
        assert _read(argv) is None
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert message in capsys.readouterr().err


# the argv forms of the benchmark's operations (perfbench/workloads.py)
WORKLOAD_ARGV = [
    ["verify", "family:triple", "--mode", "numeric", "--network", "halfgrid:9",
     "--trials", "3", "--jobs", "2", "--seed", "417"],
    ["verify", "{good}", "--mode", "tropical", "--network", "halfgrid:9",
     "--trials", "1", "--jobs", "2", "--seed", "0"],
    ["flows", "--network", "halfgrid:12", "-I", "1,4,6,9,11,12", "--format", "text"],
    ["flows", "--network", "halfgrid:11", "-I", "1,2,5,7,8,11", "-J", "1,2,3,4,6,9", "--format", "json"],
    ["laurent", "-n", "10", "-A", "2,3,5,8,10", "--format", "json"],
    ["doubleflow-audit", "--network", "halfgrid:9", "-I", "2,4,6,9", "-J", "3,5,8",
     "--phi", "17", "--phi-prime", "0"],
    ["check-balance", "{good}"],
    ["counterexample", "{bad}"],
]


def test_reader_reads_every_workload_call(pair_files):
    good, bad = pair_files
    for argv in WORKLOAD_ARGV:
        argv = [arg.format(good=good, bad=bad) for arg in argv]
        read = _read(argv)
        assert read is not None, argv
        assert vars(read) == vars(build_parser().parse_args(argv))


def test_argparse_answers_as_the_reader_does(pair_files, monkeypatch, capsys):
    # with every call left to argparse, main gives the same stdout, stderr
    # and exit code
    good, bad = pair_files
    table = [
        *PARSER_ARGV,
        *WORKLOAD_ARGV[-2:],
        ["verify", "family:triple", "--mode", "numeric", "--network", "halfgrid:4", "--seed", "-3"],
        ["check-balance", "{good}", "--format=json"],
        ["flows", "--net", "halfgrid:3", "-I", "1"],
    ]
    table = [[arg.format(good=good, bad=bad) for arg in argv] for argv in table]
    expected = [_outcome(capsys, argv) for argv in table]
    monkeypatch.setattr("sqflows.cli._read", lambda argv: None)
    assert [_outcome(capsys, argv) for argv in table] == expected
