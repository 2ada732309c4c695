"""Exact Python call counts per simulator layer, for work pins.

A pinned scenario runs under cProfile and ``perfbench/layers.py``'s
:class:`LayerProfile` sums its calls by the ``repro`` package that owns
each function.  The counts are the same on every host, so a change that
makes the program do more Python work fails its pin by layer, while wall
clock is left to the benchmark's same-machine A/B.  A change that moves
a count re-pins it and says so in CHANGES.md, as for a digest.
"""

import cProfile
import pstats
from typing import Any, Callable, Dict, Tuple

from perfbench.layers import LayerProfile, layer_of

#: Interpreter, standard-library and test-file calls, which differ
#: between Python versions.
NOT_REPRO = ("py", "bench", "other")
#: Python 3.12 inlines list, dict and set comprehensions (PEP 709); they
#: are left out of every count so one pin holds on every interpreter.
INLINED = ("<listcomp>", "<dictcomp>", "<setcomp>")


def repro_calls(run: Callable[..., Any],
                *args: Any) -> Tuple[Any, Dict[str, int]]:
    """Return ``run(*args)`` and its calls per ``repro`` layer that has
    any."""
    profile = cProfile.Profile()
    result = profile.runcall(run, *args)
    calls = LayerProfile(profile).calls
    for (filename, _line, name), stats in pstats.Stats(profile).stats.items():
        if name in INLINED:
            calls[layer_of(filename)] -= stats[1]
    return result, {layer: n for layer, n in calls.items()
                    if n and layer not in NOT_REPRO}
