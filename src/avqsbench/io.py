"""JSON file formats for states, state sets, instruments and protocols.

Complex entries are stored as [re, im] pairs; matrices are flat row-major
lists.  Parsing is strict: every field is read through ``_get``/``_typed``,
which check its JSON type; wrong lengths, entries that are not JSON numbers
or not finite floats, non-square matrices, or dims that are not positive
integers are rejected with the offending field named.  The constructors
hold the dims to the matrix and the parties, and ``_field`` names the field.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from math import isqrt
from typing import Any

import numpy as np

from .channels import CpMap, Instrument, MergingProtocol, OneWayLoccChannel
from .linalg import PureState, State, state
from .rates import StateSet


class ParseError(Exception):
    """Malformed input file; the message names the offending field."""


_KINDS = {dict: "object", list: "list", str: "string"}


def _typed(value: Any, kind: type, field: str, nonempty: bool = False) -> Any:
    """``value`` if it has the JSON type ``kind`` (any type for ``object``)."""
    if not isinstance(value, kind) or nonempty and not value:
        what = "a nonempty " if nonempty else "an " if kind is dict else "a "
        raise ParseError(f"{field}: expected {what}{_KINDS[kind]}")
    return value


def _get(doc: Any, key: str, kind: type, field: str, nonempty: bool = False) -> Any:
    """Field ``key`` of the object ``doc``, checked by ``_typed``."""
    if key not in _typed(doc, dict, field):
        raise ParseError(f"{field}: missing '{key}'")
    return _typed(doc[key], kind, f"{field}.{key}", nonempty)


@contextmanager
def _field(field: str):
    """Re-raise a constructor's ``ValueError`` as a ``ParseError`` naming the field."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from None


# bool is a subclass of int, but true and false are not JSON numbers
def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_positive_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def _positive_ints(raw: Any, field: str) -> tuple[int, ...]:
    if not (isinstance(raw, list) and all(_is_positive_int(d) for d in raw)):
        raise ParseError(f"{field}: expected a list of positive integers")
    return tuple(raw)


def _complex_list(raw: Any, field: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise ParseError(f"{field}: expected a list of [re, im] pairs")
    out = np.empty(len(raw), dtype=complex)
    for i, pair in enumerate(raw):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ParseError(f"{field}[{i}]: expected a [re, im] pair")
        if not (_is_number(pair[0]) and _is_number(pair[1])):
            raise ParseError(f"{field}[{i}]: entries must be numbers")
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
    """A square matrix from a flat row-major list of pairs."""
    flat = _complex_list(raw, field)
    d = isqrt(flat.size)
    if d * d != flat.size:
        raise ParseError(f"{field}: {flat.size} entries do not form a square matrix")
    return flat.reshape(d, d)


def _dims_parties(doc: Any, field: str) -> tuple[tuple[int, ...], tuple[str, ...]]:
    dims = _positive_ints(_get(doc, "dims", object, field), f"{field}.dims")
    parties = _get(doc, "parties", list, field)
    return dims, tuple(_typed(p, str, f"{field}.parties[{i}]") for i, p in enumerate(parties))


def _pairs(values: np.ndarray) -> list[list[float]]:
    """[re, im] pairs of an array's entries in row-major order."""
    return [[float(z.real), float(z.imag)] for z in values.reshape(-1)]


# ---------------------------------------------------------------------------
# states

def state_from_dict(doc: dict, field: str = "state") -> State:
    dims, parties = _dims_parties(doc, field)
    mat = _square_matrix(_get(doc, "matrix", object, field), f"{field}.matrix")
    with _field(field):
        return state(mat, dims, parties)


def state_to_dict(s: State) -> dict:
    return {
        "dims": list(s.dims),
        "parties": list(s.parties),
        "matrix": _pairs(s.matrix),
    }


def pure_state_from_dict(doc: dict, field: str = "pure_state") -> PureState:
    dims, parties = _dims_parties(doc, field)
    vec = _complex_list(_get(doc, "amplitudes", object, field), f"{field}.amplitudes")
    with _field(field):
        return PureState(vec, dims, parties)


def pure_state_to_dict(p: PureState) -> dict:
    return {
        "dims": list(p.dims),
        "parties": list(p.parties),
        "amplitudes": _pairs(p.vector),
    }


def state_set_from_dict(doc: dict, field: str = "state_set") -> StateSet:
    dims, parties = _dims_parties(doc, field)
    members = _get(doc, "members", dict, field, nonempty=True)
    states = []
    for name, raw in members.items():
        mat = _square_matrix(raw, f"{field}.members.{name}")
        with _field(f"{field}.members.{name}"):
            states.append(state(mat, dims, parties))
    return StateSet(tuple(states), tuple(members))


def state_set_to_dict(xs: StateSet) -> dict:
    return {
        "dims": list(xs.dims),
        "parties": list(xs.parties),
        "members": {label: _pairs(m.matrix) for label, m in zip(xs.labels, xs.members)},
    }


# ---------------------------------------------------------------------------
# maps, instruments, protocols

def cp_map_from_dict(doc: dict, field: str = "cp_map") -> CpMap:
    kraus = []
    for i, kdoc in enumerate(_get(doc, "kraus", list, field)):
        kfield = f"{field}.kraus[{i}]"
        rows, cols = _get(kdoc, "rows", object, kfield), _get(kdoc, "cols", object, kfield)
        if not (_is_positive_int(rows) and _is_positive_int(cols)):
            raise ParseError(f"{kfield}: rows/cols must be positive integers")
        flat = _complex_list(_get(kdoc, "entries", object, kfield), f"{kfield}.entries")
        if flat.size != rows * cols:
            raise ParseError(f"{kfield}: {flat.size} entries do not fill {rows}x{cols}")
        kraus.append(flat.reshape(rows, cols))
    in_dims = _positive_ints(doc.get("in_dims", []), f"{field}.in_dims")
    out_dims = _positive_ints(doc.get("out_dims", []), f"{field}.out_dims")
    with _field(field):
        return CpMap(tuple(kraus), in_dims, out_dims)


def cp_map_to_dict(m: CpMap) -> dict:
    return {
        "kraus": [
            {
                "rows": k.shape[0],
                "cols": k.shape[1],
                "entries": _pairs(k),
            }
            for k in m.kraus
        ],
        "in_dims": list(m.in_dims),
        "out_dims": list(m.out_dims),
    }


def instrument_from_dict(doc: dict, field: str = "instrument") -> Instrument:
    docs = _get(doc, "outcomes", list, field, nonempty=True)
    outcomes = tuple(cp_map_from_dict(o, f"{field}.outcomes[{i}]") for i, o in enumerate(docs))
    with _field(field):
        return Instrument(outcomes)


def instrument_to_dict(e: Instrument) -> dict:
    return {"outcomes": [cp_map_to_dict(m) for m in e.outcomes]}


def locc_from_dict(doc: dict, field: str = "locc") -> OneWayLoccChannel:
    a_doc = _get(doc, "a_instrument", object, field)
    instrument = instrument_from_dict(a_doc, f"{field}.a_instrument")
    docs = _get(doc, "b_channels", list, field)
    b = tuple(cp_map_from_dict(c, f"{field}.b_channels[{i}]") for i, c in enumerate(docs))
    with _field(field):
        return OneWayLoccChannel(instrument, b)


def locc_to_dict(n: OneWayLoccChannel) -> dict:
    return {
        "a_instrument": instrument_to_dict(n.a_instrument),
        "b_channels": [cp_map_to_dict(c) for c in n.b_channels],
    }


def protocol_from_dict(doc: dict, field: str = "protocol") -> MergingProtocol:
    blocklength = _get(doc, "blocklength", object, field)
    if not _is_positive_int(blocklength):
        raise ParseError(f"{field}.blocklength: must be a positive integer")
    locc = locc_from_dict(_get(doc, "locc", object, field), f"{field}.locc")
    phi_in = pure_state_from_dict(_get(doc, "phi_in", object, field), f"{field}.phi_in")
    phi_out = pure_state_from_dict(_get(doc, "phi_out", object, field), f"{field}.phi_out")
    with _field(field):
        return MergingProtocol(locc, phi_in, phi_out, blocklength)


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
    def unique_keys(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):  # json keeps the last value of a repeated key
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise ParseError(f"{path}: repeated key '{repeated}'")
        return doc

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except RecursionError:  # the reader recurses once per nesting level
        raise ParseError(f"{path}: nested too deeply") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    return _typed(doc, dict, path)


def save_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
