"""Result persistence for benchmark runs: the JSON files under
``results/`` that the ``benchmarks/`` suite writes."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict


def save_json(path: Path, data: Any) -> Path:
    """Write ``data`` as pretty JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=str)
    return path


def load_json(path: Path) -> Any:
    with open(path) as fh:
        return json.load(fh)


def attach_metrics(row: Dict[str, Any], snapshot: Dict[str, Any]) -> None:
    """Attach a :meth:`repro.obs.Registry.snapshot` to a saved result
    row under the ``"metrics"`` key; a no-op when the snapshot is empty
    (metrics disabled)."""
    if snapshot:
        row["metrics"] = snapshot
