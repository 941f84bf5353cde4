"""Output manifest of the group commands on 30 rings.

``tests/golden/group_outputs.json`` holds the sha256 of stdout and the exit
code of each of ``kmw``, ``gw``, ``witt``, ``compare`` and
``steinberg-check`` on every ring in RINGS (150 commands).  Each command runs
in-process against an empty ring registry, as a fresh ``witt-lab`` call would.
A change to the group layer that changes any output shows up as a diff of
that file.  After an intended change, rewrite it with

    PYTHONPATH=src python tests/test_group_manifest.py --write

which prints the key of each command whose entry changed.  RANK_CAP_4 pins
gw, witt and compare at ``--rank-cap 4`` on four rings with residue field F_2
the same way; it is edited by hand.
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


# gw, witt and compare above the default cap, where searches join pairs and
# Z/32 leaves two rank-4 pairs undecided: (stdout sha256, exit code) of
# "<command> --ring <spec> --rank-cap 4", pinned before the GW rows were cut
# to the closed-form rank-2 classes plus the search joins
RANK_CAP_4 = {
    "gw Z/8": ("78e1b751e3486c6c2d30f17b744819a94ce2636081f4ec066cf07f023b41488c", 0),
    "witt Z/8": ("cdb7f4dfaae85ed731f2bce9398d70fb9439a60a534bd2e00b7ba188fa45c017", 0),
    "compare Z/8": ("d4fae8768c4039aa42c2f4ed1de7680c1a66c817d9a3128e9a879d894df0a5f3", 0),
    "gw Z/16": ("141462b7c085b609e6d65c632ec82d0069a7cf724e80fe1d2c35d807367747a2", 0),
    "witt Z/16": ("a532d4eed60004da347539791cb7e513dc4bc8e796661aa6525e24566c56b477", 0),
    "compare Z/16": ("2f9fae94698ad06b8d9a0a450c6335afbce0195a8918e1d3436b4c1e4e5e5e1c", 0),
    "gw Z/32": ("9ba7696c8d8005ab1f5ebc547767bb2ab3770a0dfa8a6286cf6393d6ee5254aa", 0),
    "witt Z/32": ("2e95b908f4827506798a8b32061c2660822e918493230cbcaef2386711250d39", 0),
    "compare Z/32": ("bd9f55380e56d151c58d0ef43a3f4cf23ec0b6dc696dd58b2324dfb8e76a41f2", 0),
    "gw GF(2)[x]/(x^4)": ("6c9a7d9d2bbd5fc8e5650f330f463153e965df3a94ac6259749cc04b7ef31083", 0),
    "witt GF(2)[x]/(x^4)": ("8ef343a67171177fa2728a38c5525f2a0f84bc99814e5a9246eee9c07ac1cd33", 0),
    "compare GF(2)[x]/(x^4)": ("5e1e97c760d196bc37d5358a0e34e2b2ac9a81895e96a2c2c26de5676118db13", 0),
}


def cold_output(argv):
    """(stdout sha256, exit code) of argv run against an empty ring registry."""
    saved = rings._parse_cache
    try:
        rings._parse_cache = {}
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
    finally:
        rings._parse_cache = saved
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


def group_outputs():
    """{"<command> --ring <spec>": {"exit_code", "stdout_sha256"}} in RINGS order."""
    out = {}
    for spec in RINGS:
        for cmd in COMMANDS:
            digest, code = cold_output([cmd, "--ring", spec])
            out[f"{cmd} --ring {spec}"] = {"exit_code": code, "stdout_sha256": digest}
    return out


def test_group_outputs_match_manifest():
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = group_outputs()
    assert list(got) == list(expected)
    changed = [key for key in got if got[key] != expected[key]]
    assert not changed, changed


def test_group_outputs_above_the_default_cap_match_their_pins():
    changed = []
    for key, pin in RANK_CAP_4.items():
        cmd, spec = key.split(" ", 1)
        if cold_output([cmd, "--ring", spec, "--rank-cap", "4"]) != pin:
            changed.append(key)
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
