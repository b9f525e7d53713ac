"""The scenario catalog: one shared source for CLI and HTTP listings.

``python -m repro list`` and the results service's ``GET /scenarios`` must
describe the registry identically -- a scenario visible on the command line
but absent (or differently shaped) over HTTP would make the service look
stale.  Both therefore render :func:`catalog_entries`: the CLI prints
:func:`format_catalog` over it, the server returns it as JSON (and serves
the same :func:`format_catalog` text under ``?format=text``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.spec import SCENARIOS, ScenarioSpec

__all__ = ["catalog_entries", "format_catalog", "registered_scenarios"]


def registered_scenarios() -> List[Tuple[str, ScenarioSpec]]:
    """``(name, spec)`` for every registered scenario, in registry order."""
    # The paper presets register themselves on import; pulling the module in
    # here keeps a cold interpreter's catalog complete.
    import repro.experiments.scenarios  # noqa: F401

    return [(name, SCENARIOS.get(name)) for name in SCENARIOS.names()]


def catalog_entries(
    scenarios: Optional[List[Tuple[str, ScenarioSpec]]] = None,
) -> List[Dict[str, Any]]:
    """One JSON-safe record per registered scenario (or per ``(name,
    spec)`` of ``scenarios``), in registry order.

    Each record carries the spec's identifying metadata: ``name``,
    ``description``, the human ``shape`` summary, the ordered ``variants``
    and ``rows`` labels, the default ``seeds`` axis, the ``aggregate_by``
    policy and the cell count (variants x rows, before seed replication).
    """
    entries: List[Dict[str, Any]] = []
    for name, spec in registered_scenarios() if scenarios is None else scenarios:
        entries.append({
            "name": name,
            "description": spec.description,
            "shape": spec.shape(),
            "variants": list(spec.variants),
            "rows": list(spec.rows) if spec.rows else None,
            "seeds": list(spec.seeds) if spec.seeds else None,
            "aggregate_by": list(spec.aggregate_by),
            "cells": len(spec.variants) * max(1, len(spec.rows or {})),
        })
    return entries


def format_catalog(entries: List[Dict[str, Any]]) -> str:
    """The ``python -m repro list`` rendering of a catalog."""
    if not entries:
        return "no scenarios registered"
    width = max(len(entry["name"]) for entry in entries)
    return "\n".join(
        f"{entry['name']:<{width}}  {entry['shape']:<28}  {entry['description']}"
        for entry in entries
    )
