"""JSON file formats for states, state sets, instruments and protocols.

Complex entries are stored as [re, im] pairs; matrices are flat row-major
lists.  Parsing is strict: wrong lengths, entries that are not JSON numbers
(strings, booleans) or not finite floats, non-square matrices, or dims that
are not positive integers or do not multiply up are rejected with the
offending field named.
"""

from __future__ import annotations

import json
from math import isqrt, prod
from typing import Any

import numpy as np

from .channels import CpMap, Instrument, MergingProtocol, OneWayLoccChannel
from .linalg import PureState, State, state
from .rates import StateSet


class ParseError(Exception):
    """Malformed input file; the message names the offending field."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


# bool is a subclass of int, but true and false are not JSON numbers
def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_positive_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def _positive_ints(raw: Any, field: str) -> tuple[int, ...]:
    _require(
        isinstance(raw, list) and all(_is_positive_int(d) for d in raw),
        f"{field}: expected a list of positive integers",
    )
    return tuple(raw)


def _complex_list(raw: Any, field: str) -> np.ndarray:
    _require(isinstance(raw, list), f"{field}: expected a list of [re, im] pairs")
    out = np.empty(len(raw), dtype=complex)
    for i, pair in enumerate(raw):
        _require(
            isinstance(pair, (list, tuple)) and len(pair) == 2,
            f"{field}[{i}]: expected a [re, im] pair",
        )
        _require(_is_number(pair[0]) and _is_number(pair[1]), f"{field}[{i}]: entries must be numbers")
        try:
            out[i] = complex(float(pair[0]), float(pair[1]))
        except OverflowError:  # an integer entry too large for a float
            raise ParseError(f"{field}[{i}]: entries must fit in a float") from None
    if not np.isfinite(out).all():
        # JSON readers accept NaN and Infinity, which pass every tolerance check
        i = int(np.flatnonzero(~np.isfinite(out))[0])
        raise ParseError(f"{field}[{i}]: entries must be finite")
    return out


def _square_matrix(raw: Any, field: str) -> np.ndarray:
    flat = _complex_list(raw, field)
    d = isqrt(flat.size)
    _require(d * d == flat.size, f"{field}: {flat.size} entries do not form a square matrix")
    return flat.reshape(d, d)


def _dims_parties(doc: dict, field: str) -> tuple[tuple[int, ...], tuple[str, ...]]:
    _require("dims" in doc, f"{field}: missing 'dims'")
    _require("parties" in doc, f"{field}: missing 'parties'")
    dims = _positive_ints(doc["dims"], f"{field}.dims")
    parties = doc["parties"]
    _require(
        isinstance(parties, list) and len(parties) == len(dims),
        f"{field}.parties: need one party label per factor",
    )
    return dims, tuple(str(p) for p in parties)


# ---------------------------------------------------------------------------
# states

def state_from_dict(doc: dict, field: str = "state") -> State:
    dims, parties = _dims_parties(doc, field)
    _require("matrix" in doc, f"{field}: missing 'matrix'")
    mat = _square_matrix(doc["matrix"], f"{field}.matrix")
    _require(
        mat.shape[0] == prod(dims),
        f"{field}: matrix dimension {mat.shape[0]} does not match dims product {prod(dims)}",
    )
    try:
        return state(mat, dims, parties)
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from None


def state_to_dict(s: State) -> dict:
    flat = s.matrix.reshape(-1)
    return {
        "dims": list(s.dims),
        "parties": list(s.parties),
        "matrix": [[float(z.real), float(z.imag)] for z in flat],
    }


def pure_state_from_dict(doc: dict, field: str = "pure_state") -> PureState:
    dims, parties = _dims_parties(doc, field)
    _require("amplitudes" in doc, f"{field}: missing 'amplitudes'")
    vec = _complex_list(doc["amplitudes"], f"{field}.amplitudes")
    _require(
        vec.size == prod(dims),
        f"{field}: {vec.size} amplitudes do not match dims product {prod(dims)}",
    )
    try:
        return PureState(vec, dims, parties)
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from None


def pure_state_to_dict(p: PureState) -> dict:
    return {
        "dims": list(p.dims),
        "parties": list(p.parties),
        "amplitudes": [[float(z.real), float(z.imag)] for z in p.vector],
    }


def state_set_from_dict(doc: dict, field: str = "state_set") -> StateSet:
    dims, parties = _dims_parties(doc, field)
    _require(
        "members" in doc and isinstance(doc["members"], dict) and doc["members"],
        f"{field}: missing nonempty 'members' object",
    )
    members = []
    labels = []
    for name, raw in doc["members"].items():
        mat = _square_matrix(raw, f"{field}.members.{name}")
        _require(
            mat.shape[0] == prod(dims),
            f"{field}.members.{name}: dimension {mat.shape[0]} does not match dims product",
        )
        try:
            members.append(state(mat, dims, parties))
        except ValueError as exc:
            raise ParseError(f"{field}.members.{name}: {exc}") from None
        labels.append(str(name))
    return StateSet(tuple(members), tuple(labels))


def state_set_to_dict(xs: StateSet) -> dict:
    return {
        "dims": list(xs.dims),
        "parties": list(xs.parties),
        "members": {
            label: [[float(z.real), float(z.imag)] for z in m.matrix.reshape(-1)]
            for label, m in zip(xs.labels, xs.members)
        },
    }


# ---------------------------------------------------------------------------
# maps, instruments, protocols

def cp_map_from_dict(doc: dict, field: str = "cp_map") -> CpMap:
    _require(isinstance(doc, dict) and "kraus" in doc, f"{field}: missing 'kraus'")
    kraus = []
    for i, kdoc in enumerate(doc["kraus"]):
        kfield = f"{field}.kraus[{i}]"
        _require(
            isinstance(kdoc, dict) and "rows" in kdoc and "cols" in kdoc and "entries" in kdoc,
            f"{kfield}: expected an object with rows, cols, entries",
        )
        rows, cols = kdoc["rows"], kdoc["cols"]
        _require(
            _is_positive_int(rows) and _is_positive_int(cols),
            f"{kfield}: rows/cols must be positive integers",
        )
        flat = _complex_list(kdoc["entries"], f"{kfield}.entries")
        _require(
            flat.size == rows * cols,
            f"{kfield}: {flat.size} entries do not fill {rows}x{cols}",
        )
        kraus.append(flat.reshape(rows, cols))
    in_dims = _positive_ints(doc.get("in_dims", []), f"{field}.in_dims")
    out_dims = _positive_ints(doc.get("out_dims", []), f"{field}.out_dims")
    try:
        return CpMap(tuple(kraus), in_dims, out_dims)
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from None


def cp_map_to_dict(m: CpMap) -> dict:
    return {
        "kraus": [
            {
                "rows": k.shape[0],
                "cols": k.shape[1],
                "entries": [[float(z.real), float(z.imag)] for z in k.reshape(-1)],
            }
            for k in m.kraus
        ],
        "in_dims": list(m.in_dims),
        "out_dims": list(m.out_dims),
    }


def instrument_from_dict(doc: dict, field: str = "instrument") -> Instrument:
    _require(
        isinstance(doc, dict) and isinstance(doc.get("outcomes"), list) and doc["outcomes"],
        f"{field}: missing nonempty 'outcomes' list",
    )
    outcomes = tuple(
        cp_map_from_dict(o, f"{field}.outcomes[{i}]") for i, o in enumerate(doc["outcomes"])
    )
    try:
        return Instrument(outcomes)
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from None


def instrument_to_dict(e: Instrument) -> dict:
    return {"outcomes": [cp_map_to_dict(m) for m in e.outcomes]}


def locc_from_dict(doc: dict, field: str = "locc") -> OneWayLoccChannel:
    _require(isinstance(doc, dict) and "a_instrument" in doc, f"{field}: missing 'a_instrument'")
    _require(isinstance(doc.get("b_channels"), list), f"{field}: missing 'b_channels' list")
    instrument = instrument_from_dict(doc["a_instrument"], f"{field}.a_instrument")
    b = tuple(
        cp_map_from_dict(c, f"{field}.b_channels[{i}]") for i, c in enumerate(doc["b_channels"])
    )
    try:
        return OneWayLoccChannel(instrument, b)
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from None


def locc_to_dict(n: OneWayLoccChannel) -> dict:
    return {
        "a_instrument": instrument_to_dict(n.a_instrument),
        "b_channels": [cp_map_to_dict(c) for c in n.b_channels],
    }


def protocol_from_dict(doc: dict, field: str = "protocol") -> MergingProtocol:
    for key in ("blocklength", "phi_in", "phi_out", "locc"):
        _require(key in doc, f"{field}: missing '{key}'")
    _require(
        _is_positive_int(doc["blocklength"]),
        f"{field}.blocklength: must be a positive integer",
    )
    try:
        return MergingProtocol(
            locc=locc_from_dict(doc["locc"], f"{field}.locc"),
            phi_in=pure_state_from_dict(doc["phi_in"], f"{field}.phi_in"),
            phi_out=pure_state_from_dict(doc["phi_out"], f"{field}.phi_out"),
            blocklength=doc["blocklength"],
        )
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from None


def protocol_to_dict(p: MergingProtocol) -> dict:
    if p.mirrors:
        raise ValueError("a protocol with mirror maps has no JSON form (no field for them)")
    return {
        "blocklength": p.blocklength,
        "phi_in": pure_state_to_dict(p.phi_in),
        "phi_out": pure_state_to_dict(p.phi_out),
        "locc": locc_to_dict(p.locc),
    }


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    _require(isinstance(doc, dict), f"{path}: top-level value must be an object")
    return doc


def save_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
