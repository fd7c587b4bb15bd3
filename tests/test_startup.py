"""Start-up guard: ``import sqflows, sqflows.cli`` loads none of the modules
that only cost start-up time.

The test imports the sqflows that pytest found, in a fresh interpreter
without ``site``.  Run as a script, this file checks whichever sqflows a
plain interpreter finds, such as an installed one:

    python tests/test_startup.py
"""

import os
import subprocess
import sys

# dataclasses brings inspect, ast, dis and tokenize; traceback is needed on
# exit 3 only; typing for annotations only
UNWANTED = frozenset({"dataclasses", "inspect", "traceback", "typing"})

_PROBE = """\
import sys
before = set(sys.modules)
import sqflows, sqflows.cli
print(sqflows.__file__)
print(*sorted(set(sys.modules) - before))
"""


def newly_loaded(*flags, env=None) -> tuple[str, set[str]]:
    """The file sqflows came from, and the modules its import loaded."""
    run = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    where, loaded = run.stdout.splitlines()
    return where, set(loaded.split())


def test_import_loads_no_unwanted_module():
    import sqflows

    src = os.path.dirname(os.path.dirname(sqflows.__file__))
    # without site, which may load typing itself
    where, loaded = newly_loaded("-S", env={**os.environ, "PYTHONPATH": src})
    assert os.path.samefile(where, sqflows.__file__)
    assert "sqflows.cli" in loaded
    assert sorted(loaded & UNWANTED) == []


if __name__ == "__main__":
    where, loaded = newly_loaded()
    print(f"sqflows from {where}")
    sys.exit(f"import loaded {sorted(loaded & UNWANTED)}" if loaded & UNWANTED else 0)
