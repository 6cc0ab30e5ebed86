"""Every inequality, verified over every graph of small order.

This sweep bypasses the inequality table entirely: spectra come from batched
LAPACK solves and the inequalities are evaluated as raw numpy formulas, so it
is an independent route to the same claims the bounds module encodes.  Each
unordered {G, complement} pair is visited once and both orientations are
checked.
"""

import math

import numpy as np
import pytest

TOL = 1e-8


def _pair_spectra(n: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending spectra of the graphs and their complements, batched."""
    iu, ju = np.triu_indices(n, 1)
    pos = ju * (ju - 1) // 2 + iu
    stack = np.zeros((masks.shape[0], n, n))
    bits = (masks[:, None] >> pos[None, :]) & 1
    stack[:, iu, ju] = bits
    stack[:, ju, iu] = bits
    comp = 1.0 - stack
    comp[:, np.arange(n), np.arange(n)] = 0.0
    return np.linalg.eigvalsh(stack)[:, ::-1], np.linalg.eigvalsh(comp)[:, ::-1]


def _check_orientation(n: int, wg: np.ndarray, wc: np.ndarray) -> None:
    total = wg[:, 0] + wc[:, 0]
    assert np.all(total >= n - 1 - TOL), "largest-eigenvalue sum lower bound"
    assert np.all(total <= math.sqrt(2) * (n - 1) + TOL), "largest-eigenvalue sum upper bound"
    assert np.all(total <= 4 * n / 3 - 1 + TOL), "4n/3 - 1 upper bound"

    for k in range(2, n + 1):
        assert np.all(wg[:, k - 1] + wc[:, n - k + 1] <= -1 + TOL), f"Weyl upper k={k}"
        assert np.all(wg[:, k - 1] + wc[:, n - k] >= -1 - TOL), f"Weyl lower k={k}"

    for s in range(2, (n + 2) // 3 + 1):  # n >= 3s - 2
        top_sq = (wg[:, 1:s] ** 2).sum(axis=1) + (wc[:, 1:s] ** 2).sum(axis=1)
        assert np.all(top_sq <= n * n / 4 + TOL), f"top square sum s={s}"
        top_abs = np.abs(wg[:, 1:s]).sum(axis=1) + np.abs(wc[:, 1:s]).sum(axis=1)
        assert np.all(top_abs <= n * math.sqrt((s - 1) / 2) + TOL), f"top abs sum s={s}"
        pair = wg[:, s - 1] ** 2 + wc[:, s - 1] ** 2
        assert np.all(pair <= n * n / (4 * (s - 1)) + TOL), f"top pair s={s}"

    for s in range(1, (n - 1) // 2 + 1):  # n > 2s
        bot_sq = (wg[:, n - s :] ** 2).sum(axis=1) + (wc[:, n - s :] ** 2).sum(axis=1)
        assert np.all(bot_sq <= (n / 2 + s) ** 2 + TOL), f"bottom square sum s={s}"
        bot_abs = np.abs(wg[:, n - s :]).sum(axis=1) + np.abs(wc[:, n - s :]).sum(axis=1)
        assert np.all(bot_abs <= (n / 2 + s) * math.sqrt(2 * s) + TOL), f"bottom abs sum s={s}"

    s = 1
    if n >= 4**s:
        fns = np.abs(wg[:, n - s]) + np.abs(wc[:, n - s])
        assert np.all(fns <= n / math.sqrt(2 * s) + 1 + TOL), "bottom pair abs bound"
    if n > 4**s:
        pair = wg[:, n - s] ** 2 + wc[:, n - s] ** 2
        assert np.all(pair <= (n / 2 + s) ** 2 / s + TOL), "bottom pair square bound"

    k = 1
    if n >= 4**k:
        a = wg[:, n - k]
        b = wc[:, n - k]
        first = np.minimum(-1.0 - a, -b)
        second = np.minimum(-1.0 - b, -a)
        assert np.all(np.maximum(first, second) >= -TOL), "Ramsey sign disjunction"

    # subset square-sum bound at the full index set {2..n}
    tail = (wg[:, 1:] ** 2).sum(axis=1)
    assert np.all(tail <= n * n / 4 + TOL), "subset square sum"

    for s in range(2, n + 1):  # |mu_s| <= n / (2 sqrt(n-s+1)) whenever mu_s <= 0
        mu_s = wg[:, s - 1]
        nonpositive = mu_s[mu_s <= TOL]
        assert np.all(np.abs(nonpositive) <= n / (2 * math.sqrt(n - s + 1)) + TOL), (
            f"nonpositive eigenvalue s={s}"
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_every_graph_satisfies_every_bound(n):
    m = n * (n - 1) // 2
    reps = 1 << (m - 1)  # one representative per {G, complement} pair
    for lo in range(0, reps, 1 << 17):
        masks = np.arange(lo, min(lo + (1 << 17), reps), dtype=np.int64)
        wg, wc = _pair_spectra(n, masks)
        _check_orientation(n, wg, wc)
        _check_orientation(n, wc, wg)
