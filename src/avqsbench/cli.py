"""Batch command-line front end.

Every subcommand reads JSON inputs, runs deterministically under the given
seed, and emits a JSON report (or a flat CSV rendering with --format csv).
Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource cap exceeded.
"""

from __future__ import annotations

import json
import sys
from math import prod
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .channels import merging_fidelity
from .config import DimensionCapError, all_words, local_config
from .io import (
    ParseError,
    instrument_to_dict,
    load_json,
    protocol_from_dict,
    state_from_dict,
    state_set_from_dict,
)
from .linalg import bell_pair, fidelity
from .rates import (
    StateSet,
    compound_classical_cost,
    compound_merging_cost,
    convex_mixture,
    distillation_rate_lower_bound,
    worst_case_protocol_fidelity,
)
from .rate_gap import build_orthogonal_family, rate_gap_report
from .robustify import check_robustification
from .schur_weyl import build_entropy_instrument, sending_marginal

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3

def _count(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        message = f"invalid int value: {text!r}"
    else:
        if value >= 0:
            return value
        message = f"must be >= 0, got {value}"
    # imported here so that a run whose flags all convert never loads argparse
    import argparse

    raise argparse.ArgumentTypeError(message)


# Every flag is declared once, as (flag, keyword arguments of argparse's
# add_argument); build_parser and _read_plain both read these entries.
_COMMON_FLAGS = (
    ("--seed", {"type": _count, "default": 0, "help": "deterministic seed (default 0)"}),
    ("--format", {"choices": ("json", "csv"), "default": None, "help": "report format"}),
    (
        "--csv",
        {"action": "store_const", "const": "csv", "dest": "format",
         "help": "shorthand for --format csv"},
    ),
    ("--dim-cap", {"type": int, "default": None, "help": "override the dimension cap"}),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser with every subcommand, or with ``command``'s
    alone; the top-level usage lists every subcommand either way."""
    import argparse

    class CommandParser(argparse.ArgumentParser):
        # argparse hands a subcommand's leftovers to the top-level parser,
        # whose error would print the usage of every subcommand
        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            return namespace, extras

    parser = argparse.ArgumentParser(
        prog="avqsbench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    # argparse's usage lists the subparsers built unless given a metavar, and
    # its error messages name the action by its metavar, so the full parser has none
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar, parser_class=CommandParser)
    for name in _COMMANDS if command is None else (command,):
        help_text, flags, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON_FLAGS + flags:
            p.add_argument(flag, **kwargs)
    return parser


def _dest(flag: str, spec: dict) -> str:
    return spec.get("dest", flag[2:].replace("-", "_"))


def _read_plain(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read straight
    from the command table, or None unless ``argv`` is a plain command line.

    Plain means: a known command, then exact long flags of that command, each
    bare (store_true, store_const) or followed by one value that does not
    start with '-'.  Values go through the flag's ``type`` and ``choices``;
    every required flag must be given and the last repeat wins.  On anything
    else -- help, version, '--flag=value', abbreviations, unknown flags, bad
    values, a missing flag -- the caller parses with argparse, which reports
    it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][1]
    table = dict(_COMMON_FLAGS + flags)
    values, given = {}, set()
    args = iter(argv[1:])
    for flag in args:
        spec = table.get(flag)
        if spec is None:
            return None
        action = spec.get("action", "store")
        dest = _dest(flag, spec)
        if action == "store_true":
            value = True
        elif action == "store_const":
            value = spec["const"]
        else:
            value = next(args, "-")  # a missing value reads as "-", not plain
            if value.startswith("-"):
                return None
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except Exception:  # argparse converts it again and reports the failure
                    return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        values[dest] = value
        given.add(flag)
    for flag, spec in table.items():
        if spec.get("required") and flag not in given:
            return None
        dest = _dest(flag, spec)
        default = False if spec.get("action") == "store_true" else None
        values.setdefault(dest, spec.get("default", default))
    return SimpleNamespace(command=argv[0], **values)


def _overrides(args) -> dict:
    """The setting that ``--dim-cap`` overrides."""
    if args.dim_cap is None:
        return {}
    if args.dim_cap <= 0:
        raise ParseError("--dim-cap must be positive")
    return {"dim_cap": args.dim_cap}


def _flatten(doc, prefix=""):
    """(key, value) rows of a JSON document, keys joined by '.'; null, true,
    false and an empty list or object are written as their JSON text."""
    if isinstance(doc, (dict, list)) and doc:
        items = sorted(doc.items()) if isinstance(doc, dict) else enumerate(doc)
        return [row for key, item in items for row in _flatten(item, f"{prefix}{key}.")]
    if doc is None or isinstance(doc, (bool, dict, list)):
        doc = json.dumps(doc)
    return [(prefix[:-1], doc)]


def _emit(payload: dict, fmt: str) -> None:
    doc = {k: v for k, v in payload.items() if k != "csv_rows"}
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    import csv  # imported here so that a JSON report never loads it

    header, rows = payload["csv_rows"] if "csv_rows" in payload else (("key", "value"), _flatten(doc))
    # fields holding ',', '"' or a newline are quoted
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([str(x) for x in row] for row in rows)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit_code, default_format);
# main adds the command name and the seed to the payload

_RATES_FLAGS = (
    ("--set", {"required": True, "dest": "set_path", "help": "state-set JSON file"}),
    ("--hull", {"action": "store_true", "help": "maximize over the convex hull"}),
)


def _cmd_rates(args):
    xs = state_set_from_dict(load_json(args.set_path), args.set_path)
    merging = compound_merging_cost(xs, hull=args.hull)
    classical = compound_classical_cost(xs, hull=args.hull)
    payload = {
        "set": args.set_path,
        "hull": bool(args.hull),
        "merging_cost": merging.to_dict(),
        "classical_cost": classical.to_dict(),
    }
    return payload, EXIT_OK, "json"


_DISTILL_FLAGS = (
    ("--set", {"required": True, "dest": "set_path"}),
    ("--k", {"type": int, "default": 1, "choices": (1, 2)}),
    ("--outcomes", {"type": int, "default": 2, "help": "instrument outcomes to search over"}),
    ("--restarts", {"type": int, "default": 8, "help": "seeded ascents; none runs if a zero witness is found"}),
    ("--maxiter", {"type": int, "default": 500, "help": "ascent iterations per restart"}),
)


def _cmd_distill(args):
    xs = state_set_from_dict(load_json(args.set_path), args.set_path)
    result = distillation_rate_lower_bound(
        xs,
        k=args.k,
        n_outcomes=args.outcomes,
        restarts=args.restarts,
        seed=args.seed,
        maxiter=args.maxiter,
    )
    payload = {
        "set": args.set_path,
        "report": result.report.to_dict(),
        "instrument": instrument_to_dict(result.instrument),
    }
    return payload, EXIT_OK, "json"


_WORST_CASE_FLAGS = (
    ("--protocol", {"required": True, "dest": "protocol_path", "help": "protocol JSON file"}),
    ("--set", {"required": True, "dest": "set_path"}),
    ("--blocklength", {"type": int, "required": True}),
    ("--sample", {"type": int, "default": None, "help": "sample this many words instead"}),
)


def _cmd_worst_case(args):
    protocol = protocol_from_dict(load_json(args.protocol_path), args.protocol_path)
    xs = state_set_from_dict(load_json(args.set_path), args.set_path)
    value, word = worst_case_protocol_fidelity(
        protocol, xs, args.blocklength, sample=args.sample, seed=args.seed
    )
    payload = {
        "set": args.set_path,
        "protocol": args.protocol_path,
        "blocklength": args.blocklength,
        "min_fidelity": value,
        "argmin_word": list(word),
        "exhaustive": args.sample is None,
    }
    return payload, EXIT_OK, "json"


_MERGE_FIDELITY_FLAGS = (
    ("--protocol", {"required": True, "dest": "protocol_path"}),
    ("--state", {"required": True, "dest": "state_path", "help": "source state JSON file"}),
)


def _cmd_merge_fidelity(args):
    protocol = protocol_from_dict(load_json(args.protocol_path), args.protocol_path)
    source = state_from_dict(load_json(args.state_path), args.state_path)
    payload = {
        "protocol": args.protocol_path,
        "state": args.state_path,
        "fidelity": merging_fidelity(protocol, source),
    }
    return payload, EXIT_OK, "json"


_SCHUR_DEMO_FLAGS = (
    ("--dim", {"type": int, "required": True, "help": "local dimension of the sending side"}),
    ("--blocklength", {"type": int, "required": True}),
    ("--eta", {"type": float, "required": True, "help": "entropy bin width in bits"}),
    ("--state", {"required": True, "dest": "state_path"}),
)


def _cmd_schur_demo(args):
    source = state_from_dict(load_json(args.state_path), args.state_path)
    marginal = sending_marginal(source)
    if marginal.dim != args.dim:
        raise ParseError(
            f"--dim {args.dim} does not match the sending-side dimension {marginal.dim}"
        )
    instrument = build_entropy_instrument(args.blocklength, args.dim, args.eta)
    rows = instrument.probabilities(marginal)
    payload = {
        "dim": args.dim,
        "blocklength": args.blocklength,
        "eta": args.eta,
        "state": args.state_path,
        "bins": [
            {"bin_index": i, "interval_lo": lo, "interval_hi": hi, "probability": p}
            for i, lo, hi, p in rows
        ],
        "csv_rows": (
            ("bin_index", "interval_lo", "interval_hi", "probability"),
            [(i, repr(lo), repr(hi), repr(p)) for i, lo, hi, p in rows],
        ),
    }
    return payload, EXIT_OK, "csv"


def _word_fidelity_function(xs: StateSet):
    """Fidelity of each word state to the tensor power of the set average,
    as the product of its letters' member fidelities (F is multiplicative
    on tensor products)."""
    average = convex_mixture(xs, np.full(xs.n, 1.0 / xs.n))
    member = [fidelity(rho, average) for rho in xs.members]

    def f(word):
        return prod(member[s] for s in word)

    return f


_ROBUSTIFY_FLAGS = (
    ("--set", {"required": True, "dest": "set_path"}),
    ("--blocklength", {"type": int, "required": True}),
    (
        "--trials",
        {"type": _count, "default": None,
         "help": "additionally stress seeded random word functions, this many tables"},
    ),
)


def _cmd_robustify(args):
    xs = state_set_from_dict(load_json(args.set_path), args.set_path)
    l = args.blocklength
    words = all_words(xs.n, l, "robustify-check")
    report = check_robustification(_word_fidelity_function(xs), xs.n, l)
    payload = {
        "set": args.set_path,
        "blocklength": l,
        "report": report.to_dict(),
    }
    passed = report.passed
    if args.trials:
        rng = np.random.default_rng(args.seed)
        failures = 0
        for _ in range(args.trials):
            lookup = dict(zip(words, rng.random(len(words))))
            trial = check_robustification(lookup.__getitem__, xs.n, l)
            failures += 0 if trial.passed else 1
        payload["random_tables"] = {"trials": args.trials, "failures": failures}
        passed = passed and failures == 0
    payload["passed"] = passed
    return payload, EXIT_OK if passed else EXIT_VERIFICATION, "json"


_EXAMPLE_GAP_FLAGS = (
    ("--N", {"type": int, "required": True, "dest": "n", "help": "family size"}),
    (
        "--base",
        {"default": "builtin:bell", "help": "base state: 'builtin:bell' or a state JSON file"},
    ),
    ("--blocklength", {"type": int, "default": 1}),
)


def _cmd_example_gap(args):
    if args.base == "builtin:bell":
        base = bell_pair().density()
    else:
        base = state_from_dict(load_json(args.base), args.base)
    family = build_orthogonal_family(base, args.n)
    report = rate_gap_report(family, l=args.blocklength)
    payload = {
        "base": args.base,
        "report": report.to_dict(),
    }
    return payload, EXIT_OK if report.passed else EXIT_VERIFICATION, "json"


# name -> (help, flags after the common ones, handler)
_COMMANDS = {
    "rates": ("merging/classical costs of a state set", _RATES_FLAGS, _cmd_rates),
    "distill-capacity": (
        "distillation rate of a (hull of a) state set", _DISTILL_FLAGS, _cmd_distill
    ),
    "worst-case": (
        "minimum merging fidelity over source words", _WORST_CASE_FLAGS, _cmd_worst_case
    ),
    "merge-fidelity": (
        "merging fidelity of a protocol on one state", _MERGE_FIDELITY_FLAGS, _cmd_merge_fidelity
    ),
    "schur-demo": (
        "entropy-bin probabilities of a tensor power", _SCHUR_DEMO_FLAGS, _cmd_schur_demo
    ),
    "robustify-check": (
        "verify the permutation-average bound on a word-fidelity function",
        _ROBUSTIFY_FLAGS,
        _cmd_robustify,
    ),
    "example-gap": (
        "hull costs vs protocol rates of a block family", _EXAMPLE_GAP_FLAGS, _cmd_example_gap
    ),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        with local_config(**_overrides(args)):
            payload, code, default_fmt = _COMMANDS[args.command][2](args)
            _emit({"command": args.command, "seed": args.seed, **payload}, args.format or default_fmt)
        return code
    except DimensionCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_CAP
    except (ParseError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
