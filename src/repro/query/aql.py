"""A parser and executor for the AQL dialect of Appendix A.

Supported statements (semicolons optional, keywords case-insensitive)::

    CREATE UPDATABLE ARRAY Example ( A::INTEGER ) [ I=0:2, J=0:2 ];
    LOAD Example FROM 'array_file.npy';
    VERSIONS(Example);
    SELECT * FROM Example@2;
    SELECT * FROM Example@'1-5-2011';
    SELECT * FROM Example@*;
    SELECT * FROM SUBSAMPLE(Example@*, 0, 1, 1, 2, 2, 3);
    BRANCH(Example@2 NewBranch);
    MERGE(Example@3, NewBranch@1, Combined);
    DROP ARRAY Example;
    DELETE VERSION Example@2;

The paper spells UPDATABLE both with and without the extra E; both are
accepted.  ``SUBSAMPLE`` takes inclusive (lo, hi) coordinate pairs per
spatial axis, plus an optional trailing pair indexing the stacked time
axis when the target is a multi-version stack — exactly the Appendix A
example, which selects a 2x2x2 cube from a 3x3x3 stack.

:func:`parse` reads each SELECT *shape* once: statements that differ
only in their numbers share one template, kept in a bounded LRU
(:data:`SHAPE_CACHE_SIZE`).  The cache holds syntax only; everything
that depends on the store or on the numbers' values is checked by the
executor on every call.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.errors import AQLExecutionError, AQLSyntaxError
from repro.core.schema import (
    ArraySchema,
    Attribute,
    Dimension,
    dtype_for_aql_type,
)
from repro.query.processor import QueryProcessor, VersionSpec
from repro.storage.manager import VersionedStorageManager

# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<string>'[^']*')
  | (?P<number>-?\d+)
  | (?P<dcolon>::)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol>[()\[\],;@*=:])
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # "ident" | "number" | "string" | "symbol"
    text: str
    position: int


def tokenize(source: str) -> list[Token]:
    """Split an AQL statement into tokens."""
    tokens = []
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise AQLSyntaxError(
                f"unexpected character {source[position]!r}", position)
        kind = match.lastgroup
        text = match.group()
        if kind == "ws":
            position = match.end()
            continue
        if kind == "dcolon":
            kind = "symbol"
        if kind == "string":
            text = text[1:-1]
        tokens.append(Token(kind, text, position))
        position = match.end()
    return tokens


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CreateArrayStatement:
    name: str
    schema: ArraySchema


@dataclass(frozen=True)
class LoadStatement:
    name: str
    path: str


@dataclass(frozen=True)
class VersionsStatement:
    name: str


@dataclass(frozen=True)
class SelectStatement:
    spec: VersionSpec
    subsample: tuple[int, ...] | None = None


@dataclass(frozen=True)
class BranchStatement:
    source: VersionSpec
    new_name: str


@dataclass(frozen=True)
class MergeStatement:
    parents: tuple[VersionSpec, ...]
    new_name: str


@dataclass(frozen=True)
class LabelStatement:
    spec: VersionSpec
    label: str


@dataclass(frozen=True)
class DropArrayStatement:
    name: str


@dataclass(frozen=True)
class DeleteVersionStatement:
    spec: VersionSpec


Statement = (CreateArrayStatement | LoadStatement | VersionsStatement
             | SelectStatement | BranchStatement | MergeStatement
             | LabelStatement | DropArrayStatement
             | DeleteVersionStatement)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[Token], source: str):
        self.tokens = tokens
        self.source = source
        self.at = 0

    # -- token plumbing -------------------------------------------------
    def peek(self) -> Token | None:
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise AQLSyntaxError("unexpected end of statement",
                                 len(self.source))
        self.at += 1
        return token

    def expect_symbol(self, text: str) -> Token:
        token = self.next()
        if token.kind != "symbol" or token.text != text:
            raise AQLSyntaxError(
                f"expected {text!r}, found {token.text!r}", token.position)
        return token

    def expect_ident(self, keyword: str | None = None) -> Token:
        token = self.next()
        if token.kind != "ident":
            raise AQLSyntaxError(
                f"expected identifier, found {token.text!r}",
                token.position)
        if keyword is not None and token.text.upper() != keyword:
            raise AQLSyntaxError(
                f"expected {keyword}, found {token.text!r}", token.position)
        return token

    def expect_number(self) -> int:
        token = self.next()
        if token.kind != "number":
            raise AQLSyntaxError(
                f"expected number, found {token.text!r}", token.position)
        return int(token.text)

    def accept_symbol(self, text: str) -> bool:
        token = self.peek()
        if token and token.kind == "symbol" and token.text == text:
            self.at += 1
            return True
        return False

    def keyword_is(self, *words: str) -> bool:
        token = self.peek()
        return bool(token and token.kind == "ident"
                    and token.text.upper() in words)

    # -- grammar --------------------------------------------------------
    def statement(self) -> Statement:
        token = self.peek()
        if token is None:
            raise AQLSyntaxError("empty statement", 0)
        keyword = token.text.upper() if token.kind == "ident" else ""
        handlers = {
            "CREATE": self._create,
            "LOAD": self._load,
            "VERSIONS": self._versions,
            "SELECT": self._select,
            "BRANCH": self._branch,
            "MERGE": self._merge,
            "LABEL": self._label,
            "DROP": self._drop,
            "DELETE": self._delete,
        }
        if keyword not in handlers:
            raise AQLSyntaxError(
                f"unknown statement {token.text!r}", token.position)
        result = handlers[keyword]()
        self.accept_symbol(";")
        trailing = self.peek()
        if trailing is not None:
            raise AQLSyntaxError(
                f"unexpected trailing input {trailing.text!r}",
                trailing.position)
        return result

    def _create(self) -> CreateArrayStatement:
        self.expect_ident("CREATE")
        token = self.expect_ident()
        if token.text.upper() not in ("UPDATABLE", "UPDATEABLE"):
            raise AQLSyntaxError(
                f"expected UPDATABLE, found {token.text!r}", token.position)
        self.expect_ident("ARRAY")
        name = self.expect_ident().text

        self.expect_symbol("(")
        attributes = []
        while True:
            attr_name = self.expect_ident().text
            self.expect_symbol("::")
            type_name = self.expect_ident().text
            attributes.append(Attribute(attr_name,
                                        dtype_for_aql_type(type_name)))
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")

        self.expect_symbol("[")
        dimensions = []
        while True:
            dim_name = self.expect_ident().text
            self.expect_symbol("=")
            lo = self.expect_number()
            self.expect_symbol(":")
            hi = self.expect_number()
            dimensions.append(Dimension(dim_name, lo, hi))
            if not self.accept_symbol(","):
                break
        self.expect_symbol("]")
        schema = ArraySchema(dimensions=tuple(dimensions),
                             attributes=tuple(attributes))
        return CreateArrayStatement(name=name, schema=schema)

    def _load(self) -> LoadStatement:
        self.expect_ident("LOAD")
        name = self.expect_ident().text
        self.expect_ident("FROM")
        token = self.next()
        if token.kind != "string":
            raise AQLSyntaxError("LOAD expects a quoted file path",
                                 token.position)
        return LoadStatement(name=name, path=token.text)

    def _versions(self) -> VersionsStatement:
        self.expect_ident("VERSIONS")
        self.expect_symbol("(")
        name = self.expect_ident().text
        self.expect_symbol(")")
        return VersionsStatement(name=name)

    def _select(self) -> SelectStatement:
        self.expect_ident("SELECT")
        self.expect_symbol("*")
        self.expect_ident("FROM")
        if self.keyword_is("SUBSAMPLE"):
            self.next()
            self.expect_symbol("(")
            spec = self._version_spec()
            coordinates = []
            while self.accept_symbol(","):
                coordinates.append(self.expect_number())
            self.expect_symbol(")")
            if not coordinates or len(coordinates) % 2:
                raise AQLSyntaxError(
                    "SUBSAMPLE needs an even, nonzero number of "
                    "coordinates (lo/hi pairs)")
            return SelectStatement(spec=spec,
                                   subsample=tuple(coordinates))
        return SelectStatement(spec=self._version_spec())

    def _branch(self) -> BranchStatement:
        self.expect_ident("BRANCH")
        self.expect_symbol("(")
        source = self._version_spec()
        new_name = self.expect_ident().text
        self.expect_symbol(")")
        return BranchStatement(source=source, new_name=new_name)

    def _merge(self) -> MergeStatement:
        self.expect_ident("MERGE")
        self.expect_symbol("(")
        parents = [self._version_spec()]
        names: list[str] = []
        while self.accept_symbol(","):
            if self._looks_like_spec():
                parents.append(self._version_spec())
            else:
                names.append(self.expect_ident().text)
        self.expect_symbol(")")
        if len(names) != 1:
            raise AQLSyntaxError(
                "MERGE expects parent@version references followed by "
                "one new array name")
        return MergeStatement(parents=tuple(parents), new_name=names[0])

    def _label(self) -> LabelStatement:
        # LABEL(Example@3 calibrated);
        self.expect_ident("LABEL")
        self.expect_symbol("(")
        spec = self._version_spec()
        label = self.expect_ident().text
        self.expect_symbol(")")
        return LabelStatement(spec=spec, label=label)

    def _drop(self) -> DropArrayStatement:
        self.expect_ident("DROP")
        self.expect_ident("ARRAY")
        return DropArrayStatement(name=self.expect_ident().text)

    def _delete(self) -> DeleteVersionStatement:
        self.expect_ident("DELETE")
        self.expect_ident("VERSION")
        return DeleteVersionStatement(spec=self._version_spec())

    def _looks_like_spec(self) -> bool:
        """A spec is IDENT '@' ...; a bare name is just IDENT."""
        token = self.peek()
        after = self.tokens[self.at + 1] if self.at + 1 < \
            len(self.tokens) else None
        return bool(token and token.kind == "ident" and after
                    and after.kind == "symbol" and after.text == "@")

    def _version_spec(self) -> VersionSpec:
        name = self.expect_ident().text
        self.expect_symbol("@")
        token = self.next()
        if token.kind == "number":
            return VersionSpec(array=name, version=int(token.text))
        if token.kind == "string":
            return VersionSpec(array=name, date=token.text)
        if token.kind == "ident":
            # An unquoted identifier names a labelled version
            # ("selecting versions by ... arbitrary labels").
            return VersionSpec(array=name, label=token.text)
        if token.kind == "symbol" and token.text == "*":
            return VersionSpec(array=name, all_versions=True)
        raise AQLSyntaxError(
            f"expected version id, date, label, or '*', "
            f"found {token.text!r}", token.position)


# ----------------------------------------------------------------------
# Statement shapes
# ----------------------------------------------------------------------
#: Splits a statement around its number tokens.  Quoted strings and
#: identifiers are matched whole (group 1), so digits inside them stay
#: text, exactly as :data:`_TOKEN_RE` reads them; group 2 is a number
#: token (``x-3`` is ``x`` then ``-3``, ``1-5`` is ``1`` then ``-5``).
_SHAPE_RE = re.compile(r"('[^']*'|[A-Za-z_][A-Za-z_0-9]*)|(-?\d+)")

#: How many statement shapes :func:`parse` keeps.
SHAPE_CACHE_SIZE = 256

#: shape -> template (literals -> Statement), least recently used first.
_TEMPLATES: OrderedDict = OrderedDict()
_TEMPLATES_LOCK = threading.Lock()


def _shape(source: str) -> tuple[tuple, list[int]]:
    """``(shape, literals)`` of a statement.

    The shape is the text between number tokens plus the identifiers
    and strings in it (``None`` where a number stood); the literals are
    the numbers' values, in order.  Two statements of one shape differ
    only in their numbers, so they tokenize to the same token kinds
    and, when either parses, both parse alike.
    """
    pieces = _SHAPE_RE.split(source)
    return ((tuple(pieces[0::3]), tuple(pieces[1::3])),
            list(map(int, filter(None, pieces[2::3]))))


def _select_template(statement: SelectStatement):
    """``literals -> SelectStatement`` for every statement of
    ``statement``'s shape: a numbered version id and then the
    SUBSAMPLE coordinates are a SELECT's only number tokens."""
    spec, subsample = statement.spec, statement.subsample
    first = 0 if spec.version is None else 1

    def build(literals: list[int]) -> SelectStatement:
        return SelectStatement(
            VersionSpec(spec.array, literals[0]) if first else spec,
            None if subsample is None else tuple(literals[first:]))
    return build


def parse(source: str) -> Statement:
    """Parse one AQL statement.

    A SELECT whose shape was parsed before is built from its template;
    any other statement parses cold, and a syntax error raises before
    anything is kept.
    """
    shape, literals = _shape(source)
    with _TEMPLATES_LOCK:
        template = _TEMPLATES.get(shape)
        if template is not None:
            _TEMPLATES.move_to_end(shape)
    if template is not None:
        return template(literals)
    statement = _Parser(tokenize(source), source).statement()
    if isinstance(statement, SelectStatement):
        with _TEMPLATES_LOCK:
            _TEMPLATES[shape] = _select_template(statement)
            if len(_TEMPLATES) > SHAPE_CACHE_SIZE:
                _TEMPLATES.popitem(last=False)
    return statement


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
@dataclass
class AQLResult:
    """The outcome of one statement.

    ``kind`` names the statement type; ``value`` carries the payload —
    an ndarray for selects, a list of ``Name@N`` strings for VERSIONS,
    a version id for LOAD, None for DDL.
    """

    kind: str
    value: object = None


class AQLExecutor:
    """Executes parsed statements against a storage manager."""

    def __init__(self, manager: VersionedStorageManager,
                 base_path: str | Path = "."):
        self.manager = manager
        self.processor = QueryProcessor(manager)
        self.base_path = Path(base_path)

    def execute(self, source: str) -> AQLResult:
        """Parse and run one statement."""
        return self.run(parse(source))

    def run(self, statement: Statement) -> AQLResult:
        if isinstance(statement, SelectStatement):
            return AQLResult("select", self._run_select(statement))
        if isinstance(statement, CreateArrayStatement):
            self.manager.create_array(statement.name, statement.schema)
            return AQLResult("create", statement.name)
        if isinstance(statement, LoadStatement):
            version = self.manager.insert(
                statement.name, self._read_payload(statement))
            return AQLResult("load", version)
        if isinstance(statement, VersionsStatement):
            versions = self.manager.get_versions(statement.name)
            return AQLResult(
                "versions",
                [f"{statement.name}@{v}" for v in versions])
        if isinstance(statement, BranchStatement):
            version = self._one_version("BRANCH", statement.source)
            self.manager.branch(statement.source.array, version,
                                statement.new_name)
            return AQLResult("branch", statement.new_name)
        if isinstance(statement, MergeStatement):
            parents = []
            for spec in statement.parents:
                resolved = self.processor.resolve(spec)
                parents.extend((spec.array, v) for v in resolved)
            self.manager.merge(parents, statement.new_name)
            return AQLResult("merge", statement.new_name)
        if isinstance(statement, LabelStatement):
            version = self._one_version("LABEL", statement.spec)
            self.manager.label_version(statement.spec.array, version,
                                       statement.label)
            return AQLResult("label", statement.label)
        if isinstance(statement, DropArrayStatement):
            self.manager.delete_array(statement.name)
            return AQLResult("drop", statement.name)
        if isinstance(statement, DeleteVersionStatement):
            version = self._one_version("DELETE VERSION", statement.spec)
            self.manager.delete_version(statement.spec.array, version)
            return AQLResult("delete-version", version)
        raise AQLExecutionError(
            f"unhandled statement {type(statement).__name__}")

    # ------------------------------------------------------------------
    def _one_version(self, keyword: str, spec: VersionSpec) -> int:
        """The single version a statement acts on.  ``@*`` names every
        version, so it is refused."""
        if spec.all_versions:
            raise AQLExecutionError(
                f"{keyword} acts on one version, but {spec.array}@* "
                "names every version")
        return self.processor.resolve(spec)[0]

    def _read_payload(self, statement: LoadStatement) -> np.ndarray:
        """LOAD payloads: .npy files, or raw row-major cell bytes."""
        path = self.base_path / statement.path
        if not path.exists():
            raise AQLExecutionError(f"LOAD file not found: {path}")
        record = self.manager.catalog.get_array(statement.name)
        schema = record.schema
        if path.suffix == ".npy":
            return np.load(path)
        if len(schema.attributes) != 1:
            raise AQLExecutionError(
                "raw LOAD supports single-attribute arrays only; "
                "use .npy for multi-attribute payloads")
        dtype = schema.attributes[0].dtype
        raw = path.read_bytes()
        expected = schema.cell_count * dtype.itemsize
        if len(raw) != expected:
            raise AQLExecutionError(
                f"LOAD file is {len(raw)} bytes; schema needs {expected}")
        return np.frombuffer(raw, dtype=dtype).reshape(schema.shape).copy()

    def _run_select(self, statement: SelectStatement) -> np.ndarray:
        """One select, read from one snapshot of its array: SUBSAMPLE's
        arity is checked against the very record the select reads."""
        spec = statement.spec
        snap = self.manager.catalog.snapshot(spec.array)
        if statement.subsample is None:
            return self.processor.select(spec, snap=snap)

        coordinates = statement.subsample
        ndim = snap.record.schema.ndim
        pairs = len(coordinates) // 2
        if pairs not in (ndim, ndim + 1):
            raise AQLExecutionError(
                f"SUBSAMPLE got {pairs} coordinate pairs; array has "
                f"{ndim} dimensions (pass {ndim} pairs, or {ndim + 1} "
                "with a trailing time range)")
        window = (coordinates[0:2 * ndim:2], coordinates[1:2 * ndim:2])
        return self.processor.select(
            spec, window=window, time_range=coordinates[2 * ndim:] or None,
            snap=snap)
