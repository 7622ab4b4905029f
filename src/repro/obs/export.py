"""Render / parse registry snapshots: Prometheus text format + JSON.

:func:`render_prometheus` produces the text exposition format version
0.0.4 (``# HELP`` / ``# TYPE`` headers, escaped label values,
cumulative ``le`` histogram buckets ending in ``+Inf``, ``_sum`` and
``_count`` series) from a :meth:`MetricsRegistry.snapshot` dict —
``GET /metrics`` serves exactly this.  :func:`render_json` is the same
snapshot as a JSON document for tooling that prefers structure, and
:func:`parse_prometheus` reads the text format back into samples (used
by the pretty-printer, the CI smoke check, and the round-trip tests).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Tuple

__all__ = ["render_prometheus", "render_json", "parse_prometheus",
           "PROMETHEUS_CONTENT_TYPE"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def _labels_text(labelnames, key, extra: str = "") -> str:
    parts = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(labelnames, key)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Prometheus text-exposition rendering of a registry snapshot.

    Metric names and label keys are emitted sorted, so two snapshots
    with equal contents render byte-identically.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["type"]
        labelnames = tuple(entry["labelnames"])
        lines.append(f"# HELP {name} {_escape_help(entry.get('help', ''))}")
        lines.append(f"# TYPE {name} {kind}")
        series = entry["series"]
        if kind in ("counter", "gauge"):
            for key in sorted(series):
                lines.append(f"{name}{_labels_text(labelnames, key)} "
                             f"{_fmt(series[key])}")
            continue
        buckets = tuple(entry["buckets"])
        for key in sorted(series):
            cell = series[key]
            cumulative = 0
            for bound, count in zip(buckets, cell["counts"]):
                cumulative += count
                le = _labels_text(labelnames, key,
                                  f'le="{_fmt(float(bound))}"')
                lines.append(f"{name}_bucket{le} {cumulative}")
            inf = _labels_text(labelnames, key, 'le="+Inf"')
            lines.append(f"{name}_bucket{inf} {cell['count']}")
            plain = _labels_text(labelnames, key)
            lines.append(f"{name}_sum{plain} {_fmt(cell['sum'])}")
            lines.append(f"{name}_count{plain} {cell['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(snapshot: Dict[str, Dict[str, object]]) -> str:
    """The snapshot as a JSON document (tuple label keys become
    ``{"labels": {...}, ...}`` sample objects)."""
    document = {}
    for name in sorted(snapshot):
        entry = snapshot[name]
        labelnames = tuple(entry["labelnames"])
        samples = []
        for key in sorted(entry["series"]):
            cell = entry["series"][key]
            sample = {"labels": dict(zip(labelnames, key))}
            if entry["type"] == "histogram":
                sample.update({"counts": list(cell["counts"]),
                               "sum": cell["sum"],
                               "count": cell["count"]})
            else:
                sample["value"] = cell
            samples.append(sample)
        document[name] = {
            "type": entry["type"], "help": entry.get("help", ""),
            "labelnames": list(labelnames), "samples": samples,
        }
        if entry["type"] == "histogram":
            document[name]["buckets"] = list(entry["buckets"])
    return json.dumps(document, indent=2, sort_keys=True)


def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(text):
        if text[i] in ", ":
            i += 1
            continue
        eq = text.index("=", i)
        key = text[i:eq].strip()
        if text[eq + 1] != "\"":
            raise ValueError(
                f"label value for {key!r} is not quoted in {text!r}")
        j = eq + 2
        out = []
        while text[j] != "\"":
            if text[j] == "\\":
                nxt = text[j + 1]
                out.append({"\\": "\\", "\"": "\"", "n": "\n"}.get(nxt, nxt))
                j += 2
            else:
                out.append(text[j])
                j += 1
        labels[key] = "".join(out)
        i = j + 1
    return labels


def parse_prometheus(text: str
                     ) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse exposition text into ``{series name: [(labels, value)]}``.

    Histogram child series keep their expanded names (``*_bucket``,
    ``*_sum``, ``*_count``); comment/``TYPE``/``HELP`` lines are
    skipped.  Lines break on ``\\n`` only, as the format defines them:
    ``str.splitlines`` would also break on ``\\r``, ``\\x1c``,
    ``\\u2028`` and the like, which a label value or help text may hold
    unescaped.  Good enough for round-trip tests and scrape smoke
    checks, not a validating parser.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            labels = _parse_labels(label_text)
        else:
            name, value_text = line.split(None, 1)
            labels = {}
        value_text = value_text.strip()
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        samples.setdefault(name.strip(), []).append((labels, value))
    return samples
