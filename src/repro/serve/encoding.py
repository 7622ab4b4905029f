"""Wire encodings for served tables: JSON columns and CSV rows.

Tables travel internally as category *codes* plus schema; on the wire
clients want decoded values (category labels, rounded integrals).
These helpers are pure functions over :class:`~repro.datasets.schema`
objects so both the HTTP front end and offline exporters share one
encoding.

Every table response is encoded where its chunks are generated.
Inside :func:`encoded_at_source`, which names the wire format
(``"json"`` or ``"csv"``), a pool request has each chunk encoded by the
process that generated it (a worker, or the calling thread of an inline
pool) and the bytes attached to the chunk by :func:`attach`: its CSV
rows, or its JSON column bodies (:func:`json_columns`).  A buffered
draw's chunks are then joined by :func:`join`, and the HTTP layer only
splices bytes: :func:`csv_bytes` writes a CSV response, and
:func:`json_table` writes a JSON response around the columns.  Both
give the same bytes as encoding the whole table in one place.  A
chunk's bytes are a pure function of the chunk, so they depend only on
``(seed, index)`` like its rows.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import io
import json
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..datasets.schema import Attribute, Schema, Table

#: The wire formats a table response is encoded in.
WIRES = ("json", "csv")

#: Integral values in ``[-2**63, 2**63)`` round exactly through int64.
_INT64_BOUND = 2.0 ** 63


def _decoded_column(table: Table, attribute: Attribute) -> List:
    # One tolist() yields Python ints (int64 codes) or floats (float64
    # numericals), so no value goes through a numpy-scalar cast.
    column = table.column(attribute.name)
    if attribute.is_categorical:
        categories = attribute.categories
        return [categories[code] for code in column.tolist()]
    if attribute.integral:
        # np.rint rounds half to even, as round() does, and every
        # finite value in the int64 range converts exactly.  Any other
        # value (NaN, +-inf, beyond the range) takes round(), which
        # raises or returns the big int as it always did.
        if np.all((column >= -_INT64_BOUND) & (column < _INT64_BOUND)):
            return np.rint(column).astype(np.int64).tolist()
        return list(map(round, column.tolist()))
    return column.tolist()


def columns_payload(table: Table) -> Dict[str, List]:
    """JSON-ready ``{column: values}`` with categories decoded."""
    return {attribute.name: _decoded_column(table, attribute)
            for attribute in table.schema}


def schema_payload(schema: Schema) -> Dict:
    """JSON-ready column descriptions (kind, categories, label)."""
    return {
        "label": schema.label_name,
        "columns": [
            {"name": a.name, "kind": a.kind,
             **({"categories": list(a.categories)}
                if a.is_categorical else {"integral": a.integral})}
            for a in schema
        ],
    }


def _json_column(table: Table, attribute: Attribute) -> str:
    """The text ``json.dumps`` writes for one decoded column, without
    its brackets; each category label is encoded once."""
    if attribute.is_categorical:
        labels = np.array([json.dumps(label)
                           for label in attribute.categories], dtype=object)
        return ", ".join(labels[table.column(attribute.name)].tolist())
    return json.dumps(_decoded_column(table, attribute))[1:-1]


def json_columns(table: Table) -> List[bytes]:
    """Each column's JSON body, in schema order: the ASCII text
    ``json.dumps`` writes for the column's decoded values, without the
    brackets (empty for a table without rows)."""
    return [_json_column(table, attribute).encode("ascii")
            for attribute in table.schema]


def json_table(head: Dict, table: Table, tail: Dict) -> bytes:
    """``json.dumps({**head, "columns": columns_payload(table),
    **tail})`` as UTF-8, with the columns spliced from the bodies
    ``table`` carries from :func:`attach` (encoded here when it carries
    none)."""
    bodies = getattr(table, "_json_columns", None)
    if bodies is None:
        bodies = json_columns(table)
    columns = b", ".join(
        json.dumps(attribute.name).encode("ascii") + b": [" + body + b"]"
        for attribute, body in zip(table.schema, bodies))
    text = json.dumps(head)[:-1] + (", " if head else "") + '"columns": {'
    parts = [text.encode("utf-8"), columns, b"}"]
    if tail:
        parts.append(b", " + json.dumps(tail)[1:].encode("utf-8"))
    else:
        parts.append(b"}")
    return b"".join(parts)


def csv_header(schema: Schema) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerow(schema.names)
    return buffer.getvalue()


class _Lines(list):
    """A ``csv.writer`` sink that keeps each written row as one string."""

    write = list.append


def _csv_labels(categories, lone: bool) -> List[str]:
    """Each category label as ``csv.writer`` writes it in a field.

    Each label is written as a one-field row.  ``csv.writer`` writes an
    empty field that is alone in its row as ``""``, so that form stands
    for an empty field only when the schema has one column (``lone``).
    """
    lines = _Lines()
    csv.writer(lines).writerows((label,) for label in categories)
    return [line[:-2] if lone or line != '""\r\n' else ""
            for line in lines]


def _csv_column(table: Table, attribute: Attribute, lone: bool) -> List[str]:
    """One column's CSV fields, as ``csv.writer`` writes them (a float
    as its ``repr``, an int as its ``str``, which equals its ``repr``)."""
    if attribute.is_categorical:
        fields = _csv_labels(attribute.categories, lone)
        return [fields[code]
                for code in table.column(attribute.name).tolist()]
    return list(map(repr, _decoded_column(table, attribute)))


def csv_rows(table: Table) -> str:
    """One CSV fragment (no header) for a table chunk.

    The same text as ``csv.writer(...).writerows`` over the decoded
    rows, built a column at a time: each column becomes one list of
    fields, and each row is the ``,``-join of its fields.
    """
    if not len(table):
        return ""
    lone = len(table.schema) == 1
    columns = [_csv_column(table, attribute, lone)
               for attribute in table.schema]
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def csv_stream(chunks: Iterable[Table], schema: Schema) -> Iterator[str]:
    """Header followed by per-chunk row fragments — feed a chunked
    HTTP response without materializing the full table."""
    yield csv_header(schema)
    for chunk in chunks:
        yield csv_rows(chunk)


_AT_SOURCE: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_serve_encoded_at_source", default=None)


@contextlib.contextmanager
def encoded_at_source(wire: str) -> Iterator[None]:
    """Pool requests drawn in this context attach to each chunk its
    ``wire`` encoding (one of :data:`WIRES`) where the chunk is
    generated (see the module docstring)."""
    if wire not in WIRES:
        raise ValueError(f"wire must be one of {WIRES}, got {wire!r}")
    token = _AT_SOURCE.set(wire)
    try:
        yield
    finally:
        _AT_SOURCE.reset(token)


def wire_at_source() -> Optional[str]:
    """The wire format of the innermost :func:`encoded_at_source`, or
    ``None`` outside one."""
    return _AT_SOURCE.get()


def attach(table: Table, wire: str) -> Table:
    """Attach ``table``'s ``wire`` encoding to it (it travels with the
    table through a pool's pipes): its :func:`csv_rows` as UTF-8, or its
    :func:`json_columns`."""
    if wire == "csv":
        table._csv_utf8 = csv_rows(table).encode("utf-8")
    else:
        table._json_columns = json_columns(table)
    return table


def join(chunks: Sequence[Table]) -> Table:
    """The rows of ``chunks`` in order, carrying the bodies the chunks
    carry from :func:`attach`, joined: CSV rows concatenated, and each
    JSON column's bodies joined with ``", "`` (an empty body adds
    nothing)."""
    table = chunks[0].concat_rows(*chunks[1:])
    if len(chunks) == 1:
        return table
    if hasattr(chunks[0], "_csv_utf8"):
        table._csv_utf8 = b"".join(chunk._csv_utf8 for chunk in chunks)
    if hasattr(chunks[0], "_json_columns"):
        table._json_columns = [
            b", ".join(body for body in bodies if body)
            for bodies in zip(*(chunk._json_columns for chunk in chunks))]
    return table


def csv_bytes(chunks: Iterable[Table], schema: Schema) -> Iterator[bytes]:
    """:func:`csv_stream` as UTF-8 bytes, writing the rows a chunk
    carries from :func:`attach` as they are."""
    yield csv_header(schema).encode("utf-8")
    for chunk in chunks:
        data = getattr(chunk, "_csv_utf8", None)
        yield csv_rows(chunk).encode("utf-8") if data is None else data


def database_payload(database) -> Dict:
    """JSON-ready multi-table payload for a served database draw."""
    return {
        "tables": {name: {"n": len(database[name]),
                          "columns": columns_payload(database[name])}
                   for name in database.table_names},
        "foreign_keys": [fk.to_dict() for fk in database.foreign_keys],
    }
