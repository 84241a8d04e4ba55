"""JSON score tables and meta reports, in the canonical form of
``docs/determinism.md`` and the schemas ``docs/score_table.schema.json``
and ``docs/meta_report.schema.json``."""

import json
import math
from dataclasses import asdict

from .evaluation import PipelineScoreTable, ScoreRow
from .exceptions import UnsupportedFormat

__all__ = [
    "score_table_to_dict", "score_table_from_dict", "meta_report_to_dict",
    "load_score_table", "save_score_table", "save_meta_report",
    "format_meta_table",
]

SCHEMA_VERSION = 1
_SCORE_TABLE_KEYS = {"schema_version", "kind", "pipeline", "k", "seed",
                     "rows"}
# The types and bounds of a row's values in docs/score_table.schema.json:
# (key, Python types, low, high). A JSON integer is an ``int``.
_NUMBER = (int, float)
_ROW_SCHEMA = (
    ("dataset", str, None, None), ("subject", str, None, None),
    ("session", str, None, None), ("fold", int, 0, None),
    ("auc", (*_NUMBER, type(None)), 0.0, 1.0),
    ("error", (str, type(None)), None, None),
    ("fold_time_seconds", _NUMBER, 0.0, None),
)


def dumps_canonical(obj):
    """Serialize to the canonical byte-stable JSON form."""
    return json.dumps(obj, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def score_table_to_dict(table, include_timing=False):
    rows = [asdict(r) for r in table.rows]
    if not include_timing:
        for row in rows:
            del row["fold_time_seconds"]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "score-table",
        "pipeline": table.pipeline,
        "k": table.k,
        "seed": table.seed,
        "rows": rows,
    }


def _typed(value, types, where, low=None, high=None):
    """``value`` when it is one of ``types`` (a bool is no number) and a
    number in it is finite and within ``[low, high]``; else
    :class:`UnsupportedFormat`."""
    ok = isinstance(value, types) and not isinstance(value, bool)
    if ok and isinstance(value, _NUMBER):
        ok = (math.isfinite(value) and (low is None or value >= low)
              and (high is None or value <= high))
    if not ok:
        raise UnsupportedFormat(
            f"score-table {where} has a type or value the schema does not "
            f"allow: {value!r}")
    return value


def _score_row(row):
    """A :class:`ScoreRow` from one row object, typed and bounded as
    :data:`_ROW_SCHEMA` says; a row that is no object, or has a missing
    or unknown key, raises ``TypeError`` or ``KeyError``. Only
    ``fold_time_seconds`` is optional."""
    row = {"fold_time_seconds": 0.0, **row}
    for key, types, low, high in _ROW_SCHEMA:
        _typed(row[key], types, key, low, high)
    row.update(auc=None if row["auc"] is None else float(row["auc"]),
               fold_time_seconds=float(row["fold_time_seconds"]))
    return ScoreRow(**row)


def score_table_from_dict(obj):
    """A :class:`PipelineScoreTable` from a score-table document checked
    against the keys, types and bounds of ``docs/score_table.schema.json``;
    a mismatch raises :class:`UnsupportedFormat`."""
    if not isinstance(obj, dict) or obj.get("kind") != "score-table":
        raise UnsupportedFormat("not a score-table document")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise UnsupportedFormat(
            f"unsupported score-table schema version "
            f"{obj.get('schema_version')}"
        )
    unknown = obj.keys() - _SCORE_TABLE_KEYS
    if unknown:
        raise UnsupportedFormat(f"unknown score-table keys {sorted(unknown)}")
    try:
        if not isinstance(obj["rows"], list):
            raise UnsupportedFormat("score-table rows must be an array")
        return PipelineScoreTable(
            pipeline=_typed(obj["pipeline"], str, "pipeline"),
            k=_typed(obj["k"], int, "k", low=2),
            seed=_typed(obj["seed"], int, "seed", low=0),
            rows=tuple(_score_row(r) for r in obj["rows"]),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise UnsupportedFormat(
            f"malformed score-table document: {type(exc).__name__}: {exc}"
        ) from exc


def meta_report_to_dict(report):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "meta-report",
        "pipeline_a": report.pipeline_a,
        "pipeline_b": report.pipeline_b,
        "datasets": [asdict(d) for d in report.datasets],
        "combined": {
            "smd": report.combined_smd,
            "p_value": report.combined_p,
        },
    }


def save_score_table(table, path, include_timing=False):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(score_table_to_dict(
            table, include_timing=include_timing)))


def load_score_table(path):
    with open(path, "r", encoding="utf-8") as fh:
        return score_table_from_dict(json.load(fh))


def save_meta_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(meta_report_to_dict(report)))


def significance_marks(p):
    """Significance marks mirroring the forest-plot convention: one,
    two, or three marks for p below .05, .01, .001."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def format_meta_table(report):
    """Aligned text table of a meta report, one row per dataset plus
    the combined meta-effect."""
    header = (f"comparison: {report.pipeline_b} (right, positive effect) "
              f"vs {report.pipeline_a} (left)")
    cols = ["dataset", "n", "SMD", "95% CI", "p", "sig"]
    rows = []
    for d in report.datasets:
        rows.append([
            d.dataset, str(d.n_subjects),
            f"{d.smd:+.3f}" + ("!" if d.degenerate else ""),
            f"[{d.ci_low:+.3f}, {d.ci_high:+.3f}]",
            f"{d.p_value:.4f}", significance_marks(d.p_value),
        ])
    rows.append([
        "META", "-", f"{report.combined_smd:+.3f}", "",
        f"{report.combined_p:.4f}", significance_marks(report.combined_p),
    ])
    widths = [max(len(c), *(len(r[i]) for r in rows))
              for i, c in enumerate(cols)]
    lines = [header,
             "  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
