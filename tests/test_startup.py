"""Start-up guard: ``import sqflows, sqflows.cli``, and a plain
``check-balance`` call after it, load none of the modules that only cost
start-up time.

The test imports the sqflows that pytest found, in a fresh interpreter
without ``site``.  Run as a script, this file checks whichever sqflows a
plain interpreter finds, such as an installed one:

    python tests/test_startup.py
"""

import os
import subprocess
import sys

# dataclasses brings inspect, ast, dis and tokenize; traceback is needed on
# exit 3 only; typing for annotations only; argparse, with gettext and
# locale, for help and errors only
UNWANTED = frozenset({"dataclasses", "inspect", "traceback", "typing", "argparse", "gettext", "locale"})

_PROBE = """\
import sys
before = set(sys.modules)
import sqflows, sqflows.cli
print(sqflows.__file__)
print(*sorted(set(sys.modules) - before))
"""

# a plain call on the pair file named by argv[1], its report sent to stderr
_CALL = """\
import sys
import sqflows.cli
before = set(sys.modules)
sys.stdout = sys.stderr
code = sqflows.cli.main(["check-balance", sys.argv[1]])
print(code, *sorted(set(sys.modules) - before), file=sys.__stdout__)
"""
BALANCED = "2 1\n1 3\n--\n1 2\n2 3\n"


def newly_loaded(*flags, env=None, probe=_PROBE, args=()) -> list[str]:
    """The lines the probe prints in a fresh interpreter."""
    run = subprocess.run(
        [sys.executable, *flags, "-c", probe, *args], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.splitlines()


def _src_env():
    """The environment in which a fresh interpreter finds the sqflows that
    pytest found.  The probes run it without site (-S), which may load typing
    itself."""
    import sqflows

    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sqflows.__file__))}


def test_import_loads_no_unwanted_module():
    import sqflows

    where, loaded = newly_loaded("-S", env=_src_env())
    loaded = set(loaded.split())
    assert os.path.samefile(where, sqflows.__file__)
    assert "sqflows.cli" in loaded
    assert sorted(loaded & UNWANTED) == []


def test_plain_call_loads_no_unwanted_module(tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text(BALANCED)
    (line,) = newly_loaded("-S", env=_src_env(), probe=_CALL, args=[str(pair)])
    code, *loaded = line.split()
    assert code == "0"
    assert sorted(set(loaded) & UNWANTED) == []


def test_help_still_answers():
    run = subprocess.run(
        [sys.executable, "-S", "-m", "sqflows.cli", "check-balance", "--help"],
        env=_src_env(), capture_output=True, text=True,
    )
    assert run.returncode == 0
    assert run.stdout.startswith("usage: sqflows check-balance")


if __name__ == "__main__":
    import tempfile

    where, loaded = newly_loaded()
    with tempfile.TemporaryDirectory() as scratch:
        pair = os.path.join(scratch, "pair.txt")
        with open(pair, "w", encoding="utf-8") as handle:
            handle.write(BALANCED)
        (line,) = newly_loaded(probe=_CALL, args=[pair])
    loaded = set(loaded.split()) | set(line.split()[1:])
    print(f"sqflows from {where}")
    sys.exit(f"import or call loaded {sorted(loaded & UNWANTED)}" if loaded & UNWANTED else 0)
