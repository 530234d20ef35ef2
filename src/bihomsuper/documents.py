"""Algebra-description documents: a JSON tree format with exact rationals.

A document carries one graded space, optionally one binary and one ternary
structure tensor, named maps (square matrices with a declared parity, or rows
standing for linear forms), named scalars, and free-text metadata.  Indices in
serialized tensors are 1-based, matching the usual e_1 .. e_n notation;
everything in memory is 0-based.

Serialization is canonical: rationals are reduced "p/q" strings ("p" when the
denominator is 1), tensor entries are sorted, keys are sorted, and the dump is
deterministic, so two documents with the same semantic content serialize to
identical bytes and parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

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
            raise DocumentError(f"map {name!r} is not defined", path)
        return self.maps[name]

    def form_named(self, name: str, path: str = "maps") -> LinearForm:
        if name not in self.forms:
            raise DocumentError(f"row {name!r} is not defined", path)
        return self.forms[name]

    def structure_maps(self) -> tuple[GradedMap, GradedMap]:
        """alpha and beta, defaulting to the identity when absent."""
        return tuple(self.maps.get(name, GradedMap.identity(self.space)) for name in ("alpha", "beta"))


def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise DocumentError(message, path)


def _parse_scalar(raw: object, path: str) -> Fraction:
    if isinstance(raw, bool):
        raise DocumentError("expected a rational, got a boolean", path)
    if not isinstance(raw, (int, str)):
        raise DocumentError(f"expected a rational string, got {type(raw).__name__}", path)
    try:
        return as_scalar(raw)
    except ValueError as exc:
        raise DocumentError(str(exc), path) from None


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
    shape = "[" + ", ".join(names + ("c",)) + "]"
    _expect(isinstance(node, list), f"{section} must be a list of entries", section)
    entries: dict[tuple[int, ...], Fraction] = {}
    for n, item in enumerate(node):
        path = f"{section}[{n}]"
        _expect(isinstance(item, list) and len(item) == len(names) + 1, f"entry must be {shape}", path)
        for t, name in zip(item, names):
            _expect(_is_int(t) and 1 <= t <= space.dim, f"index {name} must be in 1..{space.dim}", path)
        c = _parse_scalar(item[-1], path)
        *args, k = (t - 1 for t in item[:-1])
        if c != 0 and space.parities[k] != sum(space.parities[a] for a in args) % 2:
            raise DocumentError("entry violates parity additivity", path)
        key = (*args, k)
        entries[key] = entries.get(key, Fraction(0)) + c
    try:
        return kind.from_dict(space, entries)
    except ParityError as exc:  # pragma: no cover - caught entrywise above
        raise DocumentError(str(exc), section) from exc


def _tensor_tree(tensor: StructureTensor) -> list:
    return [[*(t + 1 for t in key), str(c)] for key, c in sorted(tensor.entries)]


def _map_tree(m: GradedMap) -> dict:
    """The ``{"parity", "matrix"}`` node of one map, in documents and in reports."""
    return {"parity": m.parity, "matrix": [[str(c) for c in row] for row in m.matrix]}


def _parse_maps(node: object, space: SuperSpace) -> tuple[dict[str, GradedMap], dict[str, LinearForm]]:
    _expect(isinstance(node, dict), "maps must be an object", "maps")
    maps: dict[str, GradedMap] = {}
    forms: dict[str, LinearForm] = {}
    for name, spec in node.items():
        path = f"maps.{name}"
        _expect(isinstance(spec, dict), "map entry must be an object", path)
        if "row" in spec:
            row = spec["row"]
            _expect(isinstance(row, list) and len(row) == space.dim,
                    f"row must have {space.dim} entries", f"{path}.row")
            coeffs = [_parse_scalar(c, f"{path}.row[{n}]") for n, c in enumerate(row)]
            try:
                forms[name] = LinearForm(space, tuple(coeffs))
            except ParityError as exc:
                raise DocumentError(str(exc), f"{path}.row") from exc
            continue
        parity = spec.get("parity", EVEN)
        _expect(_is_int(parity) and parity in (EVEN, ODD), "parity must be 0 or 1", f"{path}.parity")
        matrix = spec.get("matrix")
        _expect(isinstance(matrix, list) and len(matrix) == space.dim,
                f"matrix must have {space.dim} rows", f"{path}.matrix")
        rows = []
        for rnum, row in enumerate(matrix):
            _expect(isinstance(row, list) and len(row) == space.dim,
                    f"matrix rows must have {space.dim} entries", f"{path}.matrix[{rnum}]")
            rows.append(tuple(
                _parse_scalar(c, f"{path}.matrix[{rnum}][{cnum}]") for cnum, c in enumerate(row)
            ))
        try:
            maps[name] = GradedMap(space, tuple(rows), parity)
        except ParityError as exc:
            raise DocumentError(str(exc), f"{path}.matrix") from exc
    return maps, forms


def parse_document(text: str) -> AlgebraDocument:
    """Parse and validate one document; raises DocumentError with a field path."""
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError as exc:
        raise DocumentError("JSON nesting is too deep") from exc
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


def serialize_document(doc: AlgebraDocument) -> str:
    """Canonical text form; stable under parse -> serialize round trips."""
    return json.dumps(_document_tree(doc), indent=2, sort_keys=True) + "\n"


def load_document(path: str) -> AlgebraDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def save_document(doc: AlgebraDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_document(doc))


def document_digest(doc: AlgebraDocument) -> str:
    """SHA-256 of the canonical serialization, for report provenance."""
    return hashlib.sha256(serialize_document(doc).encode("utf-8")).hexdigest()
