"""Canonical JSON serialization of score tables and meta reports.

The canonical form is deterministic: sorted keys, two-space indent,
trailing newline, rows ordered by (dataset, subject, session, fold).
Fold wall-clock times are excluded unless explicitly requested, so
that identical configurations yield byte-identical files regardless
of machine load or worker count. Schemas live under ``docs/``.
"""

import json
from dataclasses import asdict

from .evaluation import PipelineScoreTable, ScoreRow
from .exceptions import UnsupportedFormat

__all__ = [
    "score_table_to_dict", "score_table_from_dict",
    "meta_report_to_dict", "dumps_canonical",
    "load_score_table", "save_score_table", "save_meta_report",
    "format_meta_table",
]

SCHEMA_VERSION = 1
_SCORE_TABLE_KEYS = {"schema_version", "kind", "pipeline", "k", "seed",
                     "rows"}


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


def _score_row(row):
    """A :class:`ScoreRow` from one row object; a missing or unknown key
    raises ``TypeError`` or ``KeyError``. Only ``fold_time_seconds`` is
    optional."""
    row = {"fold_time_seconds": 0.0, **row}
    row.update(fold=int(row["fold"]),
               auc=None if row["auc"] is None else float(row["auc"]),
               error=row["error"],
               fold_time_seconds=float(row["fold_time_seconds"]))
    return ScoreRow(**row)


def score_table_from_dict(obj):
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
        return PipelineScoreTable(
            pipeline=obj["pipeline"], k=int(obj["k"]), seed=int(obj["seed"]),
            rows=tuple(_score_row(r) for r in obj["rows"]),
        )
    except (KeyError, TypeError) as exc:
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
