"""witt-lab: command-line front end with stable JSON output.

Subcommands: ring-info, diagonalize, chain, verify, gw, kmw, witt, compare,
steinberg-check, oracle.  Every run echoes its resolved configuration, and
all output is deterministic for fixed flags.  Exit codes: 0 success or
verified, 1 verification failure / unreachable endpoints / a closed
stdout, 2 usage errors.

Parsing: a canonical call (the command, then full flag names from the
command table, each with one value that does not start with '-' or, for a
switch, none; no flag twice; every required flag present) is parsed from
the table alone, into the Namespace argparse would return.  Anything else
(-h, abbreviations, --flag=value, values starting with '-', unknown,
missing or repeated flags, bad integers) goes to argparse, which gives the
help texts and usage errors.  Both paths share the least-value checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import chains, groups
from .bilinear import (
    BilinearError,
    BilinearSpace,
    CongruenceWitness,
    diagonalize,
)
from .rings import DEFAULT_SIZE_CAP, RingError, parse_ring

SCHEMA = "witt-lab/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# (flag, add_argument keywords) of the flags every command takes, first in its help
_COMMON_FLAGS = (
    ("--ring", {"help": "ring spec, e.g. 'GF(2)[x]/(x^4)'"}),
    ("--size-cap", {"type": int, "default": DEFAULT_SIZE_CAP}),
    ("--output", {"help": "also write the JSON result to this path"}),
)


@dataclass(frozen=True)
class _Command:
    help: str
    arguments: tuple = ()        # (flag, add_argument keywords) after the common flags
    minimums: tuple = ()         # (flag, least value) for integer flags
    ring_required: bool = True

    def flags(self) -> dict:
        """flag -> add_argument keywords, for every flag in help order."""
        flags = dict(_COMMON_FLAGS + self.arguments)
        flags["--ring"] = dict(flags["--ring"], required=self.ring_required)
        return flags


def _group_command(help_text):
    return _Command(help_text, (("--rank-cap", {"type": int, "default": None}),),
                    (("--rank-cap", 2),))


# every subcommand, in the order the full parser lists them
COMMANDS = {
    "ring-info": _Command("carrier, units, residue field, square classes"),
    "diagonalize": _Command(
        "split a Gram matrix into unit lines and residual blocks",
        (("--gram", {"required": True, "help": "Gram matrix as JSON or a file path"}),),
    ),
    "chain": _Command(
        "produce a chain certificate between two orthogonal bases",
        (
            ("--gram", {"required": True}),
            ("--from", {"dest": "from_basis", "required": True,
                        "help": "basis as JSON or a file path"}),
            ("--to", {"dest": "to_basis", "required": True}),
            ("--allow-unreachable", {"action": "store_true"}),
        ),
    ),
    "verify": _Command(
        "verify a chain certificate or a congruence witness",
        (("--cert", {"required": True, "help": "certificate file path or inline JSON"}),),
        ring_required=False,
    ),
    "gw": _group_command("Grothendieck-Witt group structure"),
    "kmw": _Command("Milnor-Witt K-group structure"),
    "witt": _group_command("Witt group structure"),
    "compare": _group_command("comparison map K0MW -> GW with kernel"),
    "steinberg-check": _Command(
        "Steinberg-consequence identities in the Steinberg-only quotient"
    ),
    "oracle": _Command(
        "stable isometry classification of diagonal tuples",
        (
            ("--rank-cap", {"type": int, "default": 3}),
            ("--stab-cap", {"type": int, "default": 2}),
        ),
        (("--rank-cap", 1), ("--stab-cap", 0)),
    ),
}


def build_parser(names=tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The witt-lab parser with a sub-parser for each named command."""
    # the help describes the commands, not how parsing is implemented
    parser = _Parser(prog="witt-lab", description=__doc__.partition("\n\nParsing:")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        cmd = COMMANDS[name]
        p = sub.add_parser(name, help=cmd.help)
        for flag, keywords in cmd.flags().items():
            p.add_argument(flag, **keywords)
    return parser


def _parse_from_table(argv):
    """The Namespace argparse returns for a canonical call (see the module
    docstring), read from the command table; None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = COMMANDS[argv[0]].flags()
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags or flag in given:
            return None
        keywords = flags[flag]
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value declines like a flag
        if value.startswith("-"):
            return None
        if keywords.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0])
    for flag, keywords in flags.items():
        if flag not in given and keywords.get("required"):
            return None
        default = False if keywords.get("action") == "store_true" else keywords.get("default")
        setattr(args, keywords.get("dest", flag[2:].replace("-", "_")), given.get(flag, default))
    return args


def parse_args(argv) -> argparse.Namespace:
    """Parse a canonical call from the command table; otherwise parse with
    the sub-parser of the named command alone, and an unknown or missing
    command gets the full parser and its error.  Raises UsageError, also
    for an integer flag below its least value."""
    argv = list(argv)
    args = _parse_from_table(argv)
    if args is None:
        named = argv[:1] if argv and argv[0] in COMMANDS else tuple(COMMANDS)
        args = build_parser(named).parse_args(argv)
    for flag, least in COMMANDS[args.command].minimums:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < least:
            raise UsageError(f"argument {flag}: must be at least {least}, got {value}")
    return args


def _load_payload(text: str):
    """Inline JSON, or a path to a JSON file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {text!r} as a UTF-8 JSON file: {exc}") from None
    raise UsageError(f"cannot parse {text!r} as JSON and no such file exists")


# exception class -> exit code; the first matching class wins
_ERROR_EXIT_CODES = {
    UsageError: 2,
    RingError: 2,
    BilinearError: 2,
    chains.NotOrthogonalError: 2,
    json.JSONDecodeError: 2,
    groups.GroupsError: 1,
}


def _is_grid(obj):
    """A JSON list of lists (the entries themselves are decoded later)."""
    return isinstance(obj, list) and all(isinstance(row, list) for row in obj)


def _load_grid(text: str, flag: str):
    """The payload of a matrix or basis flag; UsageError unless it is a
    list of lists, before any of it is decoded."""
    payload = _load_payload(text)
    if not _is_grid(payload):
        raise UsageError(f"{flag} must be a JSON list of lists")
    return payload


def _certificate_kind(payload) -> str:
    """'chain' or 'congruence' for a well-shaped certificate; UsageError
    otherwise, before any of it is decoded."""
    if not isinstance(payload, dict):
        raise UsageError("certificate must be a JSON object")
    if "bases" in payload:
        if not isinstance(payload.get("ring"), str):
            raise UsageError("chain certificate needs a 'ring' string")
        if not _is_grid(payload.get("gram")):
            raise UsageError("chain certificate needs a 'gram' matrix")
        bases = payload["bases"]
        if not (isinstance(bases, list) and bases and all(_is_grid(b) for b in bases)):
            raise UsageError("chain certificate needs a nonempty list of bases of vectors")
        return "chain"
    if "matrix" in payload:
        grids = [payload.get(key) for key in ("source", "target", "matrix")]
        n = len(grids[2]) if isinstance(grids[2], list) else -1
        if not all(_is_grid(g) and len(g) == n and all(len(r) == n for r in g) for g in grids):
            raise UsageError(
                "congruence witness needs 'source', 'target' and 'matrix' "
                "square matrices of one size"
            )
        return "congruence"
    raise UsageError("certificate is neither a chain ('bases') nor a witness ('matrix')")


def _vectors_from_json(ring, obj):
    return tuple(tuple(ring.element_from_json(c) for c in v) for v in obj)


def _config_of(args) -> dict:
    skip = {"command", "output"}
    return {
        k.replace("_", "-"): v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }


def run(argv) -> int:
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        print(f"witt-lab: {exc}", file=sys.stderr)
        return 2

    out = {"schema": SCHEMA, "command": args.command, "config": _config_of(args)}
    try:
        code = _dispatch(args, out)
        text = json.dumps(out, indent=2, sort_keys=True)
        if args.output:
            _write_output(args.output, text + "\n")
    except tuple(_ERROR_EXIT_CODES) as exc:
        print(json.dumps({"error": str(exc), "schema": SCHEMA}, sort_keys=True))
        print(f"witt-lab: {exc}", file=sys.stderr)
        return next(c for cls, c in _ERROR_EXIT_CODES.items() if isinstance(exc, cls))

    print(text)
    return code


def _write_output(path: str, text: str):
    """Write the --output file; UsageError if the path cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output {path!r}: {exc.strerror}") from None


def _dispatch(args, out) -> int:
    cmd = args.command
    ring = parse_ring(args.ring, args.size_cap) if args.ring else None

    if cmd == "ring-info":
        sc = ring.square_classes()
        F = ring.residue_field()
        out["ring"] = {
            "spec": ring.spec,
            "size": ring.size,
            "is_field": ring.is_field,
            "units": len(ring.units()),
            "maximal_ideal_size": ring.size - len(ring.units()),
            "residue_field": F.spec,
            "residue_field_size": F.size,
            "squares": [repr(s) for s in sc.squares],
            "square_class_representatives": [repr(r) for r in sc.reps],
        }
        return 0

    if cmd == "diagonalize":
        space = BilinearSpace.from_json(ring, _load_grid(args.gram, "--gram"))
        report, witness = diagonalize(space)
        out["units"] = [u.to_json() for u in report.units]
        out["blocks"] = [[a.to_json(), b.to_json()] for a, b in report.blocks]
        out["witness"] = witness.to_json()
        return 0

    if cmd == "chain":
        gram = _load_grid(args.gram, "--gram")
        from_basis = _load_grid(args.from_basis, "--from")
        to_basis = _load_grid(args.to_basis, "--to")
        space = BilinearSpace.from_json(ring, gram)
        b = chains.OrthogonalBasis(space, _vectors_from_json(ring, from_basis))
        c = chains.OrthogonalBasis(space, _vectors_from_json(ring, to_basis))
        try:
            chain = chains.chain_local(b, c)
        except chains.ChainUnreachableError as exc:
            out["unreachable"] = True
            out["detail"] = str(exc)
            return 0 if args.allow_unreachable else 1
        out["certificate"] = chain.to_json()
        out["length"] = len(chain)
        return 0

    if cmd == "verify":
        payload = _load_payload(args.cert)
        if isinstance(payload, dict) and "certificate" in payload:
            payload = payload["certificate"]
        kind = _certificate_kind(payload)
        if kind == "chain":
            chain = chains.Chain.from_json(payload, size_cap=args.size_cap)
            ok, msg = chains.verify_chain(chain, chain.bases[0], chain.bases[-1])
        else:
            if ring is None:
                raise UsageError("--ring is required to verify a congruence witness")
            try:
                CongruenceWitness.from_json(ring, payload)
                ok, msg = True, "ok"
            except BilinearError as exc:
                ok, msg = False, str(exc)
        out["kind"] = kind
        out["valid"] = ok
        out["diagnostic"] = msg
        return 0 if ok else 1

    if cmd in ("gw", "kmw", "witt", "compare"):
        if cmd == "gw":
            out.update(groups.gw_structure(ring, args.rank_cap).to_json())
            notes = groups.gw_presentation(ring, args.rank_cap).notes
        elif cmd == "kmw":
            out.update(groups.kmw_structure(ring).to_json())
            notes = {}
        elif cmd == "witt":
            out.update(groups.witt_structure(ring, args.rank_cap).to_json())
            notes = groups.witt_presentation(ring, args.rank_cap).notes
        else:
            report = groups.comparison_map(ring, args.rank_cap)
            out.update(report.to_json())
            out["kmw"] = report.kmw.to_json()
            out["gw"] = report.gw.to_json()
            notes = report.notes
        if notes.get("undecided"):
            out["undecided_isometry_pairs"] = len(notes["undecided"])
        return 0

    if cmd == "steinberg-check":
        report = groups.verify_steinberg_consequences(ring)
        out.update(report.to_json())
        out["ok"] = report.ok
        return 0 if (report.ok or not report.asserted) else 1

    if cmd == "oracle":
        classification = groups.stable_isometry_oracle(ring, args.rank_cap, args.stab_cap)
        out.update(classification.to_json())
        return 0

    raise UsageError(f"unknown command {cmd!r}")  # pragma: no cover


def main():  # pragma: no cover - thin wrapper
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # cannot raise again, and exit as on EPIPE (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
