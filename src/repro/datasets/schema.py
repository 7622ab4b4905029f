"""Typed, column-store relational table (the paper's table ``T``).

Columns live as numpy arrays: numerical attributes as ``float64``,
categorical attributes as ``int64`` category codes with the category
labels kept in the :class:`Attribute`.  Everything downstream — the data
transformation (Phase I), the AQP engine, the privacy metrics, the
classical ML models — operates on this structure; no pandas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError

CATEGORICAL = "categorical"
NUMERICAL = "numerical"


@dataclass(frozen=True)
class Attribute:
    """One column's declaration.

    ``categories`` is the ordered label set for categorical attributes
    (codes index into it) and must be None for numerical ones.
    ``integral`` marks numerical attributes whose values are integers, so
    synthesis can round on the way back out.
    """

    name: str
    kind: str
    categories: Optional[Tuple[str, ...]] = None
    integral: bool = False

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, NUMERICAL):
            raise SchemaError(f"unknown attribute kind {self.kind!r}")
        if self.kind == CATEGORICAL and not self.categories:
            raise SchemaError(
                f"categorical attribute {self.name!r} needs categories")
        if self.kind == NUMERICAL and self.categories is not None:
            raise SchemaError(
                f"numerical attribute {self.name!r} cannot have categories")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    @property
    def is_numerical(self) -> bool:
        return self.kind == NUMERICAL

    @property
    def domain_size(self) -> int:
        if not self.is_categorical:
            raise SchemaError(f"{self.name!r} is not categorical")
        return len(self.categories)


@dataclass(frozen=True)
class Schema:
    """Ordered attribute declarations plus an optional label attribute."""

    attributes: Tuple[Attribute, ...]
    label_name: Optional[str] = None

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names")
        if self.label_name is not None and self.label_name not in names:
            raise SchemaError(f"label {self.label_name!r} not in attributes")

    def __iter__(self):
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __getitem__(self, name: str) -> Attribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"no attribute named {name!r}")

    @property
    def names(self) -> List[str]:
        return [a.name for a in self.attributes]

    @property
    def label(self) -> Optional[Attribute]:
        if self.label_name is None:
            return None
        return self[self.label_name]

    @property
    def feature_attributes(self) -> List[Attribute]:
        return [a for a in self.attributes if a.name != self.label_name]

    def numerical_names(self, include_label: bool = True) -> List[str]:
        return [a.name for a in self.attributes if a.is_numerical
                and (include_label or a.name != self.label_name)]

    def categorical_names(self, include_label: bool = True) -> List[str]:
        return [a.name for a in self.attributes if a.is_categorical
                and (include_label or a.name != self.label_name)]

    def without_label(self) -> "Schema":
        """Schema of the feature attributes only."""
        return Schema(tuple(self.feature_attributes), label_name=None)


def schema_to_dict(schema: Schema) -> Dict:
    """JSON-serializable schema description (synthesizer persistence)."""
    return {
        "label_name": schema.label_name,
        "attributes": [
            {"name": a.name, "kind": a.kind,
             "categories": list(a.categories) if a.categories else None,
             "integral": a.integral}
            for a in schema.attributes
        ],
    }


def schema_from_dict(data: Dict) -> Schema:
    """Inverse of :func:`schema_to_dict`."""
    attributes = tuple(
        Attribute(name=a["name"], kind=a["kind"],
                  categories=(tuple(a["categories"])
                              if a.get("categories") else None),
                  integral=bool(a.get("integral", False)))
        for a in data["attributes"])
    return Schema(attributes, label_name=data.get("label_name"))


class Table:
    """A relational table: a :class:`Schema` plus aligned numpy columns."""

    def __init__(self, schema: Schema, columns: Dict[str, np.ndarray]):
        self.schema = schema
        self.columns: Dict[str, np.ndarray] = {}
        n_rows = None
        for attr in schema:
            if attr.name not in columns:
                raise SchemaError(f"missing column {attr.name!r}")
            col = np.asarray(columns[attr.name])
            if attr.is_categorical:
                col = col.astype(np.int64)
                if col.size and (col.min() < 0
                                 or col.max() >= attr.domain_size):
                    raise SchemaError(
                        f"column {attr.name!r} has codes outside "
                        f"[0, {attr.domain_size})")
            else:
                col = col.astype(np.float64)
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise SchemaError(
                    f"column {attr.name!r} has {len(col)} rows, "
                    f"expected {n_rows}")
            self.columns[attr.name] = col
        self._n_rows = n_rows if n_rows is not None else 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:
        return (f"Table(n={len(self)}, attrs={len(self.schema)}, "
                f"label={self.schema.label_name!r})")

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise SchemaError(f"no column named {name!r}")
        return self.columns[name]

    @property
    def label_codes(self) -> np.ndarray:
        """Integer label column (categorical labels only)."""
        label = self.schema.label
        if label is None:
            raise SchemaError("table has no label attribute")
        return self.columns[label.name]

    def take(self, indices: np.ndarray) -> "Table":
        """Row subset (copy) preserving the schema."""
        indices = np.asarray(indices)
        return Table(self.schema,
                     {name: col[indices] for name, col in self.columns.items()})

    def sample_rows(self, n: int, rng: np.random.Generator,
                    replace: bool = False) -> "Table":
        idx = rng.choice(len(self), size=min(n, len(self)) if not replace else n,
                         replace=replace)
        return self.take(idx)

    def select(self, names: Sequence[str]) -> "Table":
        """Column subset (shared column refs) preserving declaration order.

        The label attribute survives only when it is among ``names``.
        """
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise SchemaError(f"no column named {missing[0]!r}")
        keep = [a for a in self.schema if a.name in set(names)]
        label = (self.schema.label_name
                 if self.schema.label_name in {a.name for a in keep} else None)
        schema = Schema(tuple(keep), label_name=label)
        return Table(schema, {a.name: self.columns[a.name] for a in keep})

    def drop_label(self) -> "Table":
        """Feature-only view of the table (copy of column refs)."""
        schema = self.schema.without_label()
        return Table(schema, {a.name: self.columns[a.name] for a in schema})

    def concat_rows(self, *others: "Table") -> "Table":
        """This table's rows followed by those of each of ``others``,
        in order; ``self`` itself, not a copy, when given none."""
        if not others:
            return self
        if any(other.schema.names != self.schema.names for other in others):
            raise SchemaError("schema mismatch in concat")
        tables = (self,) + others
        cols = {name: np.concatenate([t.columns[name] for t in tables])
                for name in self.columns}
        return Table(self.schema, cols)

    def decoded_column(self, name: str) -> np.ndarray:
        """Column with categorical codes mapped back to labels."""
        attr = self.schema[name]
        col = self.columns[name]
        if attr.is_categorical:
            return np.asarray(attr.categories, dtype=object)[col]
        return col

    def to_records(self) -> List[tuple]:
        """Materialize decoded rows as plain Python scalars."""
        decoded = [self.decoded_column(name).tolist()
                   for name in self.schema.names]
        return list(zip(*decoded)) if decoded else []


def split_train_valid_test(table: Table, rng: np.random.Generator,
                           ratios: Sequence[float] = (4, 1, 1)
                           ) -> Tuple[Table, Table, Table]:
    """Random 4:1:1 split, as in the paper's evaluation framework (§6.2)."""
    if len(ratios) != 3:
        raise ValueError(
            f"ratios must have exactly three terms, got {len(ratios)}")
    total = float(sum(ratios))
    n = len(table)
    perm = rng.permutation(n)
    n_train = int(round(n * ratios[0] / total))
    n_valid = int(round(n * ratios[1] / total))
    train = table.take(perm[:n_train])
    valid = table.take(perm[n_train:n_train + n_valid])
    test = table.take(perm[n_train + n_valid:])
    return train, valid, test
