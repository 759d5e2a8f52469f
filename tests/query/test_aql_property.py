"""Property tests: AQL rendering and parsing are inverse operations,
and a parse served from the shape cache is the cold parse."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schema import ArraySchema, Attribute, Dimension
from repro.query import aql, parse, tokenize
from repro.query.aql import CreateArrayStatement

_NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,10}", fullmatch=True)
_TYPES = st.sampled_from(["INTEGER", "DOUBLE", "FLOAT", "INT64",
                          "UINT8", "INT16"])


@st.composite
def schemas(draw):
    dim_count = draw(st.integers(1, 4))
    attr_count = draw(st.integers(1, 3))
    names = draw(st.lists(_NAMES, min_size=dim_count + attr_count,
                          max_size=dim_count + attr_count,
                          unique_by=lambda n: n.lower()))
    dims = []
    for index in range(dim_count):
        lo = draw(st.integers(-100, 100))
        hi = lo + draw(st.integers(0, 500))
        dims.append(Dimension(names[index], lo, hi))
    from repro.core.schema import dtype_for_aql_type

    attrs = [
        Attribute(names[dim_count + index],
                  dtype_for_aql_type(draw(_TYPES)))
        for index in range(attr_count)
    ]
    return ArraySchema(dimensions=tuple(dims), attributes=tuple(attrs))


@settings(max_examples=60, deadline=None)
@given(name=_NAMES, schema=schemas())
def test_create_statement_roundtrip(name, schema):
    """Render a schema to AQL, parse it back: identical schema."""
    statement = f"CREATE UPDATABLE ARRAY {name} {schema.to_aql()};"
    parsed = parse(statement)
    assert isinstance(parsed, CreateArrayStatement)
    assert parsed.name == name
    assert parsed.schema == schema


@settings(max_examples=40, deadline=None)
@given(name=_NAMES, version=st.integers(1, 10 ** 6))
def test_select_by_id_roundtrip(name, version):
    parsed = parse(f"SELECT * FROM {name}@{version};")
    assert parsed.spec.array == name
    assert parsed.spec.version == version


@settings(max_examples=40, deadline=None)
@given(name=_NAMES, label=_NAMES)
def test_select_by_label_roundtrip(name, label):
    parsed = parse(f"SELECT * FROM {name}@{label};")
    assert parsed.spec.array == name
    assert parsed.spec.label == label


@settings(max_examples=40, deadline=None)
@given(name=_NAMES,
       pairs=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                      min_size=1, max_size=4))
def test_subsample_roundtrip(name, pairs):
    flat = ", ".join(f"{min(a, b)}, {max(a, b)}" for a, b in pairs)
    parsed = parse(f"SELECT * FROM SUBSAMPLE({name}@*, {flat});")
    assert parsed.spec.all_versions
    assert len(parsed.subsample) == 2 * len(pairs)


# ----------------------------------------------------------------------
# The parse cache: a cached parse is the cold parse
# ----------------------------------------------------------------------
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

_LITERALS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(0, 999).map(lambda n: f"00{n}"),
    st.integers(0, 999).map(lambda n: str(n).translate(_ARABIC_INDIC)),
    st.integers(-99, 99).map(lambda n: str(n).translate(_FULLWIDTH)),
)
_GAPS = st.sampled_from([" "] * 12 + ["  ", "\t", "\n ", ""])


def _cased(word: str):
    return st.sampled_from([word, word.lower(), word.capitalize(),
                            "".join(c.lower() if i % 2 else c
                                    for i, c in enumerate(word))])


#: Fragments that put digits next to other tokens: ``x-3`` is ``x``
#: then ``-3``, ``1-5`` is ``1`` then ``-5``, ``A1`` is one name and a
#: quoted date keeps its digits.  ``$``, a lone ``-`` and an unclosed
#: quote are lexer errors.
_ODD = st.sampled_from(["x-3", "1-5", "A1", "A@٣", "'1-5-2011'",
                        "'12-31-2011 10:00'", "$", "-", "'open", "::",
                        "@", ",", "(", ")", "*", ";", "FROM", "SUBSAMPLE"])


@st.composite
def select_skeletons(draw):
    """A SELECT (sometimes damaged) as fragments, ``None`` marking each
    number, plus two fillings' worth of literals."""
    name = draw(st.sampled_from(["A", "A1", "x", "Example", "_t2"]))
    version = draw(st.sampled_from([None, None, None, "'1-5-2011'",
                                    "'2-29-2012'", "calibrated", "*"]))
    parts = [draw(_cased("SELECT")), "*", draw(_cased("FROM"))]
    spec = [name, "@", version]
    if draw(st.booleans()):
        count = draw(st.sampled_from([2, 4, 4, 6, 6, 0, 3]))
        coordinates = [None] * count
        parts += [draw(_cased("SUBSAMPLE")), "(", *spec]
        for slot in coordinates:
            parts += [",", slot]
        parts.append(")")
    else:
        parts += spec
    if draw(st.booleans()):
        parts.append(";")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # damage
        at = draw(st.integers(0, len(parts)))
        if draw(st.booleans()) and parts:
            del parts[min(at, len(parts) - 1)]
        else:
            parts.insert(at, draw(st.one_of(_ODD, st.just(None))))
    gaps = [draw(_GAPS) for _ in parts]
    slots = sum(part is None for part in parts)
    fillings = [draw(st.lists(_LITERALS, min_size=slots, max_size=slots))
                for _ in range(2)]
    return parts, gaps, fillings


def _render(parts, gaps, literals) -> str:
    numbers = iter(literals)
    return "".join((next(numbers) if part is None else part) + gap
                   for part, gap in zip(parts, gaps))


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return (type(exc), str(exc), getattr(exc, "position", None))


@settings(max_examples=150, deadline=None)
@given(skeleton=select_skeletons())
def test_cached_parse_matches_cold_parse(skeleton):
    """The first call of a shape (a miss) and later calls (hits, with
    the same or other numbers) give what an uncached parse gives: the
    same statement, or the same error with the same position."""
    parts, gaps, fillings = skeleton
    aql._TEMPLATES.clear()
    for literals in fillings:
        source = _render(parts, gaps, literals)
        cold = _outcome(lambda: aql._Parser(tokenize(source),
                                            source).statement())
        for _ in range(2):
            assert _outcome(lambda: parse(source)) == cold, source
