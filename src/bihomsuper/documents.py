"""Algebra-description documents: a JSON tree format with exact rationals.

A document carries one graded space, optionally one binary and one ternary
structure tensor, named maps (square matrices with a declared parity, or rows
standing for linear forms), named scalars, and free-text metadata.  Indices in
serialized tensors are 1-based, matching the usual e_1 .. e_n notation;
everything in memory is 0-based.

Serialization is canonical: rationals are reduced "p/q" strings ("p" when the
denominator is 1), tensor entries are sorted, keys are sorted, and the dump is
deterministic, so two documents with the same semantic content serialize to
identical bytes and parse -> serialize -> parse is the identity.  One writer,
:func:`_canonical_json`, prints documents, their digests and machine reports.

Parsing checks each entry once and builds the stored forms directly: plain
integers and "p/q" strings become a map's int columns, or Fractions
elsewhere, and :func:`as_scalar` is the one parser for every other scalar.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd, lcm

from .core import (
    EVEN,
    ODD,
    BihomError,
    GradedMap,
    LinearForm,
    ParityError,
    StructureTensor,
    StructureTensor2,
    StructureTensor3,
    SuperSpace,
    as_scalar,
    int_digit_limit,
)

__all__ = [
    "FORMAT_VERSION",
    "AlgebraDocument",
    "DocumentError",
    "parse_document",
    "serialize_document",
    "load_document",
    "save_document",
    "document_digest",
]

FORMAT_VERSION = "bihom-algebra/1"


class DocumentError(BihomError):
    """Invalid document text or structure; carries the offending field path."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class AlgebraDocument:
    """Validated in-memory form of one algebra-description file."""

    space: SuperSpace
    bracket2: StructureTensor2 | None = None
    bracket3: StructureTensor3 | None = None
    maps: dict[str, GradedMap] = field(default_factory=dict)
    forms: dict[str, LinearForm] = field(default_factory=dict)
    scalars: dict[str, Fraction] = field(default_factory=dict)
    metadata: str = ""
    multiplicative: bool = False

    def map_named(self, name: str, path: str = "maps") -> GradedMap:
        if name not in self.maps:
            what = "a row, not a matrix" if name in self.forms else "not defined"
            raise DocumentError(f"map {name!r} is {what}", path)
        return self.maps[name]

    def form_named(self, name: str, path: str = "maps") -> LinearForm:
        if name not in self.forms:
            raise DocumentError(f"map {name!r} is a matrix, not a row" if name in self.maps else
                                f"row {name!r} is not defined", path)
        return self.forms[name]

    def structure_maps(self) -> tuple[GradedMap, GradedMap]:
        """alpha and beta, defaulting to the identity when absent; a row of either name is refused."""
        return tuple(self.map_named(name, f"maps.{name}") if name in self.forms else
                     self.maps.get(name, GradedMap.identity(self.space)) for name in ("alpha", "beta"))


def _expect(cond: bool, message: str, path: str, *index: int) -> None:
    """Refuse at the field ``path[index[0]][index[1]]...`` unless ``cond``; the path is formatted only then."""
    if not cond:
        raise DocumentError(message, path + "".join(f"[{i}]" for i in index))


# Plain integers and p/q, far shorter than any int_digit_limit() (640 digits at least).
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]{1,600})(?:/([0-9]{1,600}))?")


def _parse_ratio(raw: object, path: str, *index: int) -> tuple[int, int]:
    """The rational ``raw`` at the field that ``path`` and ``index`` name, as for :func:`_expect`,
    as ints (n, q) with q > 0; a JSON integer or a plain "p/q" string is read unreduced."""
    if type(raw) is int:
        return raw, 1
    match = _PLAIN_RATIONAL.fullmatch(raw) if type(raw) is str else None
    if match and (denominator := int(match[2] or 1)):  # as_scalar words the refusal of a zero one
        return int(match[1]), denominator
    _expect(not isinstance(raw, bool), "expected a rational, got a boolean", path, *index)
    _expect(isinstance(raw, (int, str)), f"expected a rational string, got {type(raw).__name__}", path, *index)
    try:
        return as_scalar(raw).as_integer_ratio()
    except ValueError as exc:
        message = str(exc)
    _expect(False, message, path, *index)


def _parse_scalar(raw: object, path: str, *index: int) -> Fraction:
    return Fraction(*_parse_ratio(raw, path, *index))


def _is_int(raw: object) -> bool:
    """JSON integers only: booleans are ints to Python but not here."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _parse_space(node: object) -> SuperSpace:
    _expect(isinstance(node, dict), "space must be an object", "space")
    dim = node.get("dim")
    parities = node.get("parities")
    _expect(_is_int(dim) and dim >= 1, "dim must be a positive integer", "space.dim")
    _expect(isinstance(parities, list), "parities must be a list", "space.parities")
    _expect(len(parities) == dim, "parities length must equal dim", "space.parities")
    for n, p in enumerate(parities):
        _expect(_is_int(p) and p in (EVEN, ODD), "parities entries must be 0 or 1", f"space.parities[{n}]")
    return SuperSpace(tuple(parities))


def _parse_tensor(node: object, space: SuperSpace, section: str, kind: type[StructureTensor]) -> StructureTensor:
    """Entries ``[i_1, ..., i_n, k, c]`` with 1-based indices, for a tensor of the given kind."""
    names = ("i", "j", "l")[: kind.arity] + ("k",)
    malformed = "entry must be [" + ", ".join(names + ("c",)) + "]"
    _expect(isinstance(node, list), f"{section} must be a list of entries", section)
    entries: dict[tuple[int, ...], Fraction] = {}
    dim, parities = space.dim, space.parities
    for n, item in enumerate(node):
        _expect(isinstance(item, list) and len(item) == len(names) + 1, malformed, section, n)
        for t, name in zip(item, names):
            if not (type(t) is int and 1 <= t <= dim):
                _expect(False, f"index {name} must be in 1..{dim}", section, n)
        c = _parse_scalar(item[-1], section, n)
        if c:
            *args, k = key = tuple(t - 1 for t in item[:-1])
            _expect(parities[k] == sum(parities[a] for a in args) % 2, "entry violates parity additivity", section, n)
            entries[key] = entries[key] + c if key in entries else c
    return kind._of(space, {key: c for key, c in entries.items() if c})


def _tensor_tree(tensor: StructureTensor) -> list:
    return [[*(t + 1 for t in key), str(c)] for key, c in sorted(tensor.entries)]


def _map_tree(m: GradedMap) -> dict:
    """The ``{"parity", "matrix"}`` node of one map, in documents and reports: n / d prints as str(Fraction(n, d))."""
    d, matrix = m._d, [["0"] * len(m._cols) for _ in m._cols]
    for i, column in enumerate(m._cols):
        for k, n in column:
            matrix[k][i] = str(n) if d == 1 else str(n // g) if (g := gcd(n, d)) == d else f"{n // g}/{d // g}"
    return {"parity": m.parity, "matrix": matrix}


def _parse_maps(node: object, space: SuperSpace) -> tuple[dict[str, GradedMap], dict[str, LinearForm]]:
    _expect(isinstance(node, dict), "maps must be an object", "maps")
    maps: dict[str, GradedMap] = {}
    forms: dict[str, LinearForm] = {}
    for name, spec in node.items():
        path = f"maps.{name}"
        _expect(isinstance(spec, dict), "map entry must be an object", path)
        if "row" in spec:
            row, where = spec["row"], f"{path}.row"
            _expect(isinstance(row, list) and len(row) == space.dim, f"row must have {space.dim} entries", where)
            coeffs = [_parse_scalar(c, where, n) for n, c in enumerate(row)]
            try:
                forms[name] = LinearForm(space, tuple(coeffs))
            except ParityError as exc:
                raise DocumentError(str(exc), where) from exc
            continue
        parity = spec.get("parity", EVEN)
        _expect(_is_int(parity) and parity in (EVEN, ODD), "parity must be 0 or 1", f"{path}.parity")
        matrix, where = spec.get("matrix"), f"{path}.matrix"
        _expect(isinstance(matrix, list) and len(matrix) == space.dim, f"matrix must have {space.dim} rows", where)
        columns: list[list[tuple[int, int, int]]] = [[] for _ in space.indices()]
        for rnum, row in enumerate(matrix):
            _expect(isinstance(row, list) and len(row) == space.dim,
                    f"matrix rows must have {space.dim} entries", where, rnum)
            for cnum, c in enumerate(row):  # the zeros 0 and "0" are skipped; false and 0.0 are still refused
                if c != "0" and (c or type(c) is not int):
                    columns[cnum].append((rnum, *_parse_ratio(c, where, rnum, cnum)))
        d = lcm(*(q for column in columns for _, _, q in column))
        try:
            maps[name] = GradedMap._of(space, parity, [[(k, n * (d // q)) for k, n, q in col] for col in columns], d)
        except ParityError as exc:
            raise DocumentError(str(exc), where) from exc
    return maps, forms


def parse_document(text: str) -> AlgebraDocument:
    """Parse and validate one document; raises DocumentError with a field path."""
    # An integer past int_digit_limit() fails the first reading; the second keeps its digits for its field to refuse.
    for parse_int in (None, lambda s: s if len(s.lstrip("-")) > int_digit_limit() else int(s)):
        try:
            tree = json.loads(text, parse_int=parse_int)
            break
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
        except RecursionError as exc:
            raise DocumentError("JSON nesting is too deep") from exc
        except ValueError:
            continue
    _expect(isinstance(tree, dict), "document must be a JSON object", "")
    fmt = tree.get("format")
    _expect(fmt == FORMAT_VERSION, f"unsupported format {fmt!r}", "format")
    unknown = set(tree) - {
        "format", "space", "bracket2", "bracket3", "maps", "scalars", "metadata",
        "multiplicative",
    }
    _expect(not unknown, f"unknown sections: {sorted(unknown)}", "")
    space = _parse_space(tree.get("space"))
    bracket2 = _parse_tensor(tree["bracket2"], space, "bracket2", StructureTensor2) if "bracket2" in tree else None
    bracket3 = _parse_tensor(tree["bracket3"], space, "bracket3", StructureTensor3) if "bracket3" in tree else None
    maps, forms = _parse_maps(tree.get("maps", {}), space)
    scalars: dict[str, Fraction] = {}
    scalars_node = tree.get("scalars", {})
    _expect(isinstance(scalars_node, dict), "scalars must be an object", "scalars")
    for name, raw in scalars_node.items():
        scalars[name] = _parse_scalar(raw, f"scalars.{name}")
    metadata = tree.get("metadata", "")
    _expect(isinstance(metadata, str), "metadata must be a string", "metadata")
    multiplicative = tree.get("multiplicative", False)
    _expect(isinstance(multiplicative, bool), "multiplicative must be a boolean", "multiplicative")
    return AlgebraDocument(
        space=space,
        bracket2=bracket2,
        bracket3=bracket3,
        maps=maps,
        forms=forms,
        scalars=scalars,
        metadata=metadata,
        multiplicative=multiplicative,
    )


def _document_tree(doc: AlgebraDocument) -> dict:
    """The JSON tree of the canonical form, as :func:`serialize_document` dumps it."""
    tree: dict[str, object] = {
        "format": FORMAT_VERSION,
        "space": {"dim": doc.space.dim, "parities": list(doc.space.parities)},
    }
    if doc.multiplicative:
        tree["multiplicative"] = True
    if doc.bracket2 is not None:
        tree["bracket2"] = _tensor_tree(doc.bracket2)
    if doc.bracket3 is not None:
        tree["bracket3"] = _tensor_tree(doc.bracket3)
    maps_node: dict[str, object] = {name: _map_tree(doc.maps[name]) for name in sorted(doc.maps)}
    for name in sorted(doc.forms):
        if name in maps_node:
            raise DocumentError(f"name {name!r} used for both a matrix and a row", "maps")
        maps_node[name] = {"row": [str(c) for c in doc.forms[name].coefficients]}
    if maps_node:
        tree["maps"] = maps_node
    if doc.scalars:
        tree["scalars"] = {name: str(c) for name, c in sorted(doc.scalars.items())}
    if doc.metadata:
        tree["metadata"] = doc.metadata
    return tree


def _canonical_json(tree: object) -> str:
    """The stdlib ``json`` text of ``tree`` at ``indent=2, sort_keys=True``, and a newline, byte for byte, for
    trees of str-keyed dicts, lists, tuples, str, int, bool and None, without the pure-Python encoder that
    ``indent`` selects.  Ints print by ``int.__repr__``, which refuses one past the digit limit alike."""
    return _json_text(tree, "\n") + "\n"


def _json_text(node: object, newline: str) -> str:
    if type(node) is str:
        return encode_basestring_ascii(node)
    if type(node) is int:
        return int.__repr__(node)
    inner = newline + "  "
    if isinstance(node, (list, tuple)):
        items = [encode_basestring_ascii(x) if type(x) is str else _json_text(x, inner) for x in node]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if node else "[]"
    if isinstance(node, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(node[k], inner)}" for k in sorted(node)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if node else "{}"
    if node is None or type(node) is bool:
        return "null" if node is None else "true" if node else "false"
    raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def serialize_document(doc: AlgebraDocument) -> str:
    """Canonical text form; stable under parse -> serialize round trips."""
    return _canonical_json(_document_tree(doc))


def load_document(path: str) -> AlgebraDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def save_document(doc: AlgebraDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_document(doc))


def document_digest(doc: AlgebraDocument) -> str:
    """SHA-256 of the canonical serialization, for report provenance."""
    return hashlib.sha256(serialize_document(doc).encode("utf-8")).hexdigest()
