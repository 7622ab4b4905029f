"""Wire encodings for served tables: JSON columns and streaming CSV.

Tables travel internally as category *codes* plus schema; on the wire
clients want decoded values (category labels, rounded integrals).
These helpers are pure functions over :class:`~repro.datasets.schema`
objects so both the HTTP front end and offline exporters share one
encoding.
"""

from __future__ import annotations

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


def csv_rows(table: Table) -> str:
    """One CSV fragment (no header) for a table chunk."""
    columns = [_decoded_column(table, attribute)
               for attribute in table.schema]
    buffer = io.StringIO()
    csv.writer(buffer).writerows(zip(*columns))
    return buffer.getvalue()


def csv_stream(chunks: Iterable[Table], schema: Schema) -> Iterator[str]:
    """Header followed by per-chunk row fragments — feed a chunked
    HTTP response without materializing the full table."""
    yield csv_header(schema)
    for chunk in chunks:
        yield csv_rows(chunk)


def database_payload(database) -> Dict:
    """JSON-ready multi-table payload for a served database draw."""
    return {
        "tables": {name: {"n": len(database[name]),
                          "columns": columns_payload(database[name])}
                   for name in database.table_names},
        "foreign_keys": [fk.to_dict() for fk in database.foreign_keys],
    }
