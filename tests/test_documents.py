"""Document parsing, canonical serialization, and round trips."""

import json
from fractions import Fraction as F

import pytest

from bihomsuper import (
    AlgebraDocument,
    DocumentError,
    GradedMap,
    LinearForm,
    StructureTensor2,
    SuperSpace,
    parse_document,
    serialize_document,
)



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
