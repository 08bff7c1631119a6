"""Exporting experiment results to CSV and JSON.

Downstream users want the reproduced series as data, not just rendered
tables.  These helpers serialize :class:`~repro.experiments.common.ExperimentResult`
comparison rows and data to CSV and JSON files, with no third-party
dependencies.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import pathlib
import typing


def rows_to_csv(rows: typing.Sequence[typing.Any]) -> str:
    """Serialize ComparisonRow-like objects to CSV text."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["label", "paper", "measured", "unit", "ratio", "within_tolerance"])
    for row in rows:
        writer.writerow(
            [row.label, row.paper, row.measured, row.unit, row.ratio,
             row.within_tolerance]
        )
    return out.getvalue()


def _jsonable(value: typing.Any) -> typing.Any:
    """Best-effort conversion of experiment data to JSON-safe values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def result_to_json(result: typing.Any, include_data: bool = False) -> str:
    """Serialize an ExperimentResult to JSON text."""
    payload: dict[str, typing.Any] = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "shape_reproduced": result.shape_reproduced,
        "rows": [
            {
                "label": row.label,
                "paper": row.paper,
                "measured": row.measured,
                "unit": row.unit,
                "ratio": row.ratio,
                "within_tolerance": row.within_tolerance,
            }
            for row in result.rows
        ],
    }
    if include_data:
        payload["data"] = _jsonable(result.data)
    return json.dumps(payload, indent=2, sort_keys=True)


def write_result(
    result: typing.Any,
    directory: "str | pathlib.Path",
    include_data: bool = False,
) -> list[pathlib.Path]:
    """Write ``<ID>.csv`` and ``<ID>.json`` into ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{result.experiment_id}.csv"
    json_path = directory / f"{result.experiment_id}.json"
    csv_path.write_text(rows_to_csv(result.rows), encoding="utf-8")
    json_path.write_text(
        result_to_json(result, include_data=include_data), encoding="utf-8"
    )
    return [csv_path, json_path]
