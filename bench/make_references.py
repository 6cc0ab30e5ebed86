"""Regenerate references.json from the program at the current commit.

    PYTHONPATH=src python3 bench/make_references.py

Exact values and witnesses come from exhaustive_f.  The local-search floor
for (n, s, family) is the score that steepest ascent reaches from the
extremal construction matching (n, s): local_search_f always climbs from
that start, whatever its seed, so every seed must reach at least this.  It
is computed by running local_search_f with its random starts replaced by
the construction.  Run it only when a change is meant to alter results.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

from ngspectral import search
from ngspectral.constructions import extremal_graph

EXACT = [(6, s, "top") for s in range(2, 7)] + [(6, s, "bottom") for s in range(1, 7)]
EXACT += [(7, 2, "top")] + [(5, s, "top") for s in range(2, 6)] + [(5, s, "bottom") for s in range(1, 6)]
LOCAL = [(n, 2, family) for n in (16, 24, 32) for family in ("top", "bottom")]


def main() -> None:
    refs = {"exact": {}, "local_floor": {}}
    for n, s, family in EXACT:
        rec = search.exhaustive_f(n, s, family)
        refs["exact"][f"{n},{s},{family}"] = {"value": rec.value, "witness": rec.witness}
    for n, s, family in LOCAL:
        start = extremal_graph(1, n // 4)
        with mock.patch.object(search, "erdos_renyi", lambda *a: start):
            rec = search.local_search_f(n, s, family, 0, 50, 1)
        refs["local_floor"][f"{n},{s},{family}"] = rec.value
    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
