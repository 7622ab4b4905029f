"""Wire encodings for served tables: JSON columns and streaming CSV.

Tables travel internally as category *codes* plus schema; on the wire
clients want decoded values (category labels, rounded integrals).
These helpers are pure functions over :class:`~repro.datasets.schema`
objects so both the HTTP front end and offline exporters share one
encoding.

A streamed CSV response is encoded where its chunks are generated:
inside :func:`csv_at_source`, a pool stream has each chunk's rows
encoded by the process that generated the chunk (a worker, or the
calling thread of an inline pool) and attached to the chunk by
:func:`attach_csv`; :func:`csv_bytes` then writes those bytes without
encoding them again.  A chunk's bytes are a pure function of the chunk,
so they depend only on ``(seed, index)`` like its rows.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import io
from typing import Dict, Iterable, Iterator, List

from ..datasets.schema import Attribute, Schema, Table


def _decoded_column(table: Table, attribute: Attribute) -> List:
    # One tolist() yields Python ints (int64 codes) or floats (float64
    # numericals), so no value goes through a numpy-scalar cast.
    values = table.column(attribute.name).tolist()
    if attribute.is_categorical:
        categories = attribute.categories
        return [categories[code] for code in values]
    if attribute.integral:
        return list(map(round, values))
    return values


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


_AT_SOURCE = contextvars.ContextVar("repro_serve_csv_at_source",
                                    default=False)


@contextlib.contextmanager
def csv_at_source() -> Iterator[None]:
    """Pool streams drawn in this context attach each chunk's CSV rows
    where the chunk is generated (see the module docstring)."""
    token = _AT_SOURCE.set(True)
    try:
        yield
    finally:
        _AT_SOURCE.reset(token)


def csv_wanted_at_source() -> bool:
    """True inside :func:`csv_at_source`."""
    return _AT_SOURCE.get()


def attach_csv(table: Table) -> Table:
    """Encode ``table``'s :func:`csv_rows` as UTF-8 and attach them to
    it (they travel with the table through a pool's pipes)."""
    table._csv_utf8 = csv_rows(table).encode("utf-8")
    return table


def csv_bytes(chunks: Iterable[Table], schema: Schema) -> Iterator[bytes]:
    """:func:`csv_stream` as UTF-8 bytes, writing the rows a chunk
    carries from :func:`attach_csv` as they are."""
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
