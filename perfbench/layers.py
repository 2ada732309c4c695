"""Per-layer attribution of a cProfile run.

A function belongs to the layer named after the package that owns it:
``src/repro/<pkg>/...`` is ``<pkg>``, builtins and the standard library
are ``py``, the benchmark's own files are ``bench`` and everything else
(other repro packages, third-party modules) is ``other``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sysconfig
from typing import Dict, Tuple

LAYERS = ("sim", "net", "fpga", "router", "ltl", "ranking", "dnn",
          "overload", "core", "trace", "py", "bench", "other")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_SRC_DIR = os.path.join(os.path.dirname(_BENCH_DIR.rstrip(os.sep)),
                        "src", "repro") + os.sep
_STDLIB_DIR = sysconfig.get_paths()["stdlib"] + os.sep


def layer_of(filename: str) -> str:
    if filename == "~" or filename.startswith("<"):
        return "py"
    path = os.path.abspath(filename)
    if path.startswith(_SRC_DIR):
        package = path[len(_SRC_DIR):].split(os.sep, 1)[0]
        return package if package in LAYERS else "other"
    if path.startswith(_BENCH_DIR):
        return "bench"
    if path.startswith(_STDLIB_DIR) and "site-packages" not in path:
        return "py"
    return "other"


class LayerProfile:
    """Self time, call counts and cross-layer call edges of one run."""

    def __init__(self, profile: cProfile.Profile):
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: (caller layer, callee layer) -> calls, for distinct layers.
        self.edges: Dict[Tuple[str, str], int] = {}
        layers: Dict[str, str] = {}

        def layer(func) -> str:
            name = func[0]
            if name not in layers:
                layers[name] = layer_of(name)
            return layers[name]

        for func, (_cc, nc, tt, _ct, callers) in \
                pstats.Stats(profile).stats.items():
            callee = layer(func)
            self.self_s[callee] += tt
            self.calls[callee] += nc
            for caller_func, caller_stats in callers.items():
                caller = layer(caller_func)
                if caller != callee:
                    key = (caller, callee)
                    # cProfile stores a caller entry as (nc, cc, tt, ct).
                    self.edges[key] = self.edges.get(key, 0) + caller_stats[0]
