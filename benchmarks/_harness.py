"""Result-file handling shared by the trajectory benchmarks.

``bench_core_speed``, ``bench_overload_surge`` and
``bench_control_plane_soak`` each write one JSON result file that keeps
a bounded ``history`` of prior runs, so the trajectory across changes
stays in the repo, not in CI logs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

HISTORY_LIMIT = 50


def write_result(result: Dict[str, object], path: Path) -> None:
    """Write ``result`` to ``path``, carrying forward the run history."""
    history: List[Dict[str, object]] = []
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, ValueError):
            previous = None
        if isinstance(previous, dict) and "metrics" in previous:
            history = list(previous.get("history", []))
            history.append({k: previous[k] for k in
                            ("quick", "python", "timestamp", "metrics")
                            if k in previous})
    result = dict(result)
    result["history"] = history[-HISTORY_LIMIT:]
    path.write_text(json.dumps(result, indent=1) + "\n")
