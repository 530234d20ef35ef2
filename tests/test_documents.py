"""Document parsing, canonical serialization, and round trips."""

import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bihomsuper import (
    AlgebraDocument,
    DocumentError,
    GradedMap,
    LinearForm,
    ParityError,
    StructureTensor2,
    SuperSpace,
    parse_document,
    serialize_document,
)
from bihomsuper.core import as_scalar, int_digit_limit


MINIMAL = """
{
  "format": "bihom-algebra/1",
  "space": {"dim": 1, "parities": [0]}
}
"""


def test_minimal_document_parses():
    doc = parse_document(MINIMAL)
    assert doc.space.dim == 1
    assert doc.bracket2 is None and doc.bracket3 is None
    alpha, beta = doc.structure_maps()
    assert alpha.is_identity() and beta.is_identity()


def test_parity_violation_rejected_with_path():
    text = json.dumps(
        {
            "format": "bihom-algebra/1",
            "space": {"dim": 2, "parities": [0, 1]},
            "bracket2": [[1, 1, 2, "1"]],
        }
    )
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert "bracket2" in str(err.value)


def test_map_grading_violation_names_its_first_entry_by_rows():
    """Entries (0,1) and (1,0) both break the grading; the refusal names (0,1), the first
    row by row, whether the map comes from a document or from the public constructor."""
    text = json.dumps({"format": "bihom-algebra/1", "space": {"dim": 2, "parities": [0, 1]},
                       "maps": {"alpha": {"matrix": [["1", "2"], ["3", "1"]]}}})
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    message = "entry (0,1) violates the grading of a parity-0 map"
    assert (str(err.value), err.value.path) == (f"maps.alpha.matrix: {message}", "maps.alpha.matrix")
    with pytest.raises(ParityError, match=rf"^{re.escape(message)}$"):
        GradedMap(SuperSpace((0, 1)), ((1, 2), (3, 1)))


def test_bad_rational_and_bad_reference():
    base = {
        "format": "bihom-algebra/1",
        "space": {"dim": 1, "parities": [0]},
        "scalars": {"lambda": "1/0"},
    }
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(base))
    assert "scalars.lambda" in str(err.value)
    doc = parse_document(MINIMAL)
    with pytest.raises(DocumentError):
        doc.map_named("alpha-prime")


def test_unknown_sections_rejected():
    with pytest.raises(DocumentError):
        parse_document(json.dumps({"format": "bihom-algebra/1", "space": {"dim": 1, "parities": [0]}, "extra": 1}))


def test_invalid_json_reports_location():
    with pytest.raises(DocumentError) as err:
        parse_document("{ not json")
    assert "line" in str(err.value)


def test_deeply_nested_json_is_a_document_error():
    with pytest.raises(DocumentError, match="nesting"):
        parse_document("[" * 100_000)


def _doc_for(A, forms=None, scalars=None):
    return AlgebraDocument(
        space=A.space,
        bracket2=A.bracket,
        maps={"alpha": A.alpha, "beta": A.beta},
        forms=forms or {},
        scalars=scalars or {},
        multiplicative=A.multiplicative,
    )


def test_roundtrip_is_identity_on_corpus(binary_corpus, tau_corpus):
    docs = [_doc_for(fx.algebra) for fx in binary_corpus]
    docs += [
        _doc_for(fx.algebra, forms={"tau": fx.tau}) for fx in tau_corpus
    ]
    for doc in docs:
        text = serialize_document(doc)
        again = serialize_document(parse_document(text))
        assert text == again  # byte-exact after one canonicalization


def test_semantically_equal_documents_serialize_identically():
    sp = SuperSpace((0, 0))
    t_a = StructureTensor2.from_dict(sp, {(0, 1, 1): 1, (1, 0, 1): -1})
    # same content, entries fed in another order and with an unreduced scalar
    t_b = StructureTensor2.from_dict(sp, {(1, 0, 1): F(-2, 2), (0, 1, 1): 1})
    d_a = AlgebraDocument(space=sp, bracket2=t_a)
    d_b = AlgebraDocument(space=sp, bracket2=t_b)
    assert serialize_document(d_a) == serialize_document(d_b)


def test_forms_and_scalars_roundtrip():
    sp = SuperSpace((0, 1))
    doc = AlgebraDocument(
        space=sp,
        forms={"tau": LinearForm(sp, (F(3, 2), F(0)))},
        scalars={"lambda": F(-1, 2)},
        metadata="sample",
    )
    text = serialize_document(doc)
    back = parse_document(text)
    assert back.forms["tau"].coefficients == (F(3, 2), F(0))
    assert back.scalars["lambda"] == F(-1, 2)
    assert back.metadata == "sample"
    assert '"3/2"' in text and '"-1/2"' in text


def test_map_row_name_collision_rejected():
    sp = SuperSpace((0,))
    doc = AlgebraDocument(
        space=sp,
        maps={"tau": GradedMap.identity(sp)},
        forms={"tau": LinearForm(sp, (F(1),))},
    )
    with pytest.raises(DocumentError):
        serialize_document(doc)


def test_row_parity_validation():
    text = json.dumps(
        {
            "format": "bihom-algebra/1",
            "space": {"dim": 2, "parities": [0, 1]},
            "maps": {"tau": {"row": ["1", "1"]}},
        }
    )
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert "maps.tau.row" in str(err.value)


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"space": {"dim": True, "parities": [True]}}, "space.dim"),
        ({"space": {"dim": 2, "parities": [0, True]}}, "space.parities[1]"),
        ({"bracket2": [[1, True, 1, "1"]]}, "bracket2[0]"),
        ({"bracket3": [[1, 1, 1, True, "1"]]}, "bracket3[0]"),
        ({"maps": {"D": {"parity": False, "matrix": [["1", "0"], ["0", "1"]]}}}, "maps.D.parity"),
    ],
)
def test_booleans_rejected_as_integers_with_path(patch, path):
    tree = {"format": "bihom-algebra/1", "space": {"dim": 2, "parities": [0, 0]}}
    tree.update(patch)
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(tree))
    assert err.value.path == path


def test_ternary_tensor_roundtrip_and_entry_shape():
    text = json.dumps(
        {
            "format": "bihom-algebra/1",
            "space": {"dim": 2, "parities": [0, 1]},
            "bracket3": [[2, 2, 1, 1, "3/6"], [1, 2, 1, 2, "1"]],
        }
    )
    doc = parse_document(text)
    assert doc.bracket3.as_dict() == {(1, 1, 0, 0): F(1, 2), (0, 1, 0, 1): F(1)}
    assert serialize_document(parse_document(serialize_document(doc))) == serialize_document(doc)
    bad = json.loads(text)
    bad["bracket3"] = [[1, 2, 1, "1"]]
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(bad))
    assert "[i, j, l, k, c]" in str(err.value) and err.value.path == "bracket3[0]"


def _holding(raw, path):
    """A dim-3 even document with ``raw`` at ``maps.alpha.matrix[2][1]`` or at ``bracket3[4]``."""
    matrix = [["1" if i == k else "0" for i in range(3)] for k in range(3)]
    bracket = [[1, 1, 1, 1, "1"], [1, 1, 2, 1, "2"], [1, 2, 1, 3, "-1"], [3, 3, 3, 2, "1/2"], [2, 3, 1, 3, "1"]]
    if path.startswith("maps"):
        matrix[2][1] = raw
    else:
        bracket[4][4] = raw
    return json.dumps({"format": "bihom-algebra/1", "space": {"dim": 3, "parities": [0, 0, 0]},
                       "bracket3": bracket, "maps": {"alpha": {"matrix": matrix}}})


def _agrees_with_as_scalar(raw):
    """A document reads ``raw`` as :func:`as_scalar` does: the same Fraction, or the same
    refusal text at the entry's field path, in a map and in a tensor."""
    try:
        expected, message = as_scalar(raw), None
    except ValueError as exc:
        expected, message = None, str(exc)
    for path in ("maps.alpha.matrix[2][1]", "bracket3[4]"):
        if message is not None:
            with pytest.raises(DocumentError) as err:
                parse_document(_holding(raw, path))
            assert (str(err.value), err.value.path) == (f"{path}: {message}", path)
            continue
        doc = parse_document(_holding(raw, path))
        entries = doc.bracket3.as_dict()  # a zero entry is dropped
        read = doc.maps["alpha"].matrix[2][1] if path.startswith("maps") else entries.get((1, 2, 0, 2), F(0))
        assert read == expected and type(read) is F


@pytest.mark.parametrize("raw", [
    "1/0", "1/00", "-0", "007/3", "+3", " 3 ", "1_000", "\u0663", "3/-4", "2 / 3", "1e5", "1e-4300",
    "-12/8", "0/5", "-0/07", "", "-", "/3", "3/", "--3", 0, -7, 2 ** 70,
    "9" * 600, "9" * 601, "1/" + "0" * 599 + "7", "1/" + "0" * 600 + "7",
    "9" * int_digit_limit(), "9" * (int_digit_limit() + 1), "-1/" + "7" * (int_digit_limit() + 1),
])
def test_scalar_edge_cases_read_as_as_scalar_reads_them(raw):
    _agrees_with_as_scalar(raw)


@pytest.mark.parametrize("raw, expected", [
    (False, "expected a rational, got a boolean"),
    (0.0, "expected a rational string, got float"),
    ("0/0", "not a rational number: '0/0'"),
    ("0.0", F(0)), ("-0", F(0)), ("00", F(0)), ("0/5", F(0)), ("0", F(0)), (0, F(0)),
])
def test_zero_like_map_entries_keep_their_value_or_refusal(raw, expected):
    """Only the document zeros 0 and "0" skip the scalar parser.  false and 0.0 equal 0 in
    Python, yet are refused at their field path; every other zero reads as the zero entry."""
    path = "maps.alpha.matrix[2][1]"
    if isinstance(expected, str):
        with pytest.raises(DocumentError) as err:
            parse_document(_holding(raw, path))
        assert (str(err.value), err.value.path) == (f"{path}: {expected}", path)
        return
    alpha = parse_document(_holding(raw, path)).maps["alpha"]
    assert alpha.matrix[2][1] == expected and type(alpha.matrix[2][1]) is F
    assert alpha == GradedMap.identity(alpha.space) and hash(alpha) == hash(GradedMap.identity(alpha.space))


@given(st.one_of(
    st.integers(),
    st.from_regex(r"-?[0-9]{1,8}(/[0-9]{1,8})?", fullmatch=True),
    st.text(alphabet="-+/ 0123456789_e.\u0663", max_size=10),
))
def test_scalars_read_as_as_scalar_reads_them(raw):
    _agrees_with_as_scalar(raw)
