"""Every isomorphism class of a small order, derived from the program's one
class table, and a brute-force oracle for that table.

The program keeps one class per complement pair
(`graphs.complement_pair_classes`).  Tests that need every class take the
pair classes plus the canonical forms of their complements.  The oracle
canonicalizes all 2^(n(n-1)/2) labelled graphs and their complements, so
it checks the table's recursion on the order below, not the canonical form.
"""

from __future__ import annotations

import numpy as np

from ngspectral.graphs import canonical_masks, complement_pair_classes


def _full(n: int) -> int:
    return (1 << n * (n - 1) // 2) - 1


def all_classes(n: int) -> np.ndarray:
    """Canonical masks of every class of order n, ascending."""
    reps = complement_pair_classes(n)
    return np.union1d(reps, canonical_masks(reps ^ _full(n), n))


def brute_force_pair_classes(n: int) -> np.ndarray:
    """The smaller canonical mask of each labelled graph of order n and of
    its complement, deduplicated and ascending."""
    masks = np.arange(1 << n * (n - 1) // 2, dtype=np.int64)
    return np.unique(np.minimum(canonical_masks(masks, n), canonical_masks(masks ^ _full(n), n)))
