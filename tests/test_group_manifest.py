"""Output manifest of the group commands on 30 rings.

``tests/golden/group_outputs.json`` holds the sha256 of stdout and the exit
code of each of ``kmw``, ``gw``, ``witt``, ``compare`` and
``steinberg-check`` on every ring in RINGS (150 commands).  Each command runs
in-process against an empty ring registry, as a fresh ``witt-lab`` call would.
A change to the group layer that changes any output shows up as a diff of
that file.  After an intended change, rewrite it with

    PYTHONPATH=src python tests/test_group_manifest.py --write

which prints the key of each command whose entry changed.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from wittlab import rings
from wittlab.cli import run

MANIFEST = Path(__file__).parent / "golden" / "group_outputs.json"

COMMANDS = ("kmw", "gw", "witt", "compare", "steinberg-check")

RINGS = (
    "GF(2)", "GF(3)", "GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)", "GF(11)",
    "GF(13)", "GF(16)", "GF(17)", "GF(19)",
    "Z/4", "Z/8", "Z/16", "Z/9", "Z/27", "Z/81", "Z/25", "Z/49",
    "GF(2)[x]/(x^2)", "GF(2)[x]/(x^3)", "GF(2)[x]/(x^4)", "GF(3)[x]/(x^2)",
    "GF(3)[x]/(x^3)", "GF(4)[y]/(y^2)", "GF(5)[x]/(x^2)", "GF(7)[x]/(x^2)",
    # GF(9) and GF(8) spelled as quotients of a polynomial ring
    "GF(3)[x]/(x^2+1)", "GF(2)[x]/(x^3+x+1)",
)


def group_outputs():
    """{"<command> --ring <spec>": {"exit_code", "stdout_sha256"}} in RINGS order."""
    saved = rings._parse_cache
    out = {}
    try:
        for spec in RINGS:
            for cmd in COMMANDS:
                rings._parse_cache = {}
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = run([cmd, "--ring", spec])
                out[f"{cmd} --ring {spec}"] = {
                    "exit_code": code,
                    "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                }
    finally:
        rings._parse_cache = saved
    return out


def test_group_outputs_match_manifest():
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = group_outputs()
    assert list(got) == list(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_group_manifest.py --write")
    previous = json.loads(MANIFEST.read_text(encoding="utf-8"))
    outputs = group_outputs()
    for key, entry in outputs.items():
        if previous.get(key) != entry:
            print(key)
    MANIFEST.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
