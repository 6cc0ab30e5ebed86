"""The inequality battery in plain Python over one spectrum pair.

This is the arithmetic of the per-inequality checkers that the table in
`ngspectral.bounds` replaced: running sums over the top of the spectrum
added with `+=`, `math.fsum` over the bottom and the subset, Python's `**`
and `min`/`max`.  It is kept as a test oracle for the table's bits.
"""

import math

NAN = float("nan")


def battery_rows(g: list, c: list, s_max: int, tol: float) -> list[tuple]:
    """(bound_id, param, applicable, strict, lhs, rhs) for the descending
    spectra g of a graph and c of its complement."""
    n = len(g)

    def running(w, s, f):
        total = 0.0
        for i in range(2, s + 1):
            total += f(w[i - 1])
        return total

    def square(v):
        return v**2

    total = g[0] + c[0]
    rows = [
        ("nosal_lower", None, True, False, n - 1.0, total),
        ("nosal_upper", None, True, True, total, math.sqrt(2.0) * (n - 1)),
        ("csikvari_terpai", None, True, False, total, 4.0 * n / 3.0 - 1.0),
    ]
    for s in range(2, s_max + 1):
        top = n >= 3 * s - 2
        inside = s <= n
        sq = running(g, s, square) + running(c, s, square) if inside else NAN
        ab = running(g, s, abs) + running(c, s, abs) if inside else NAN
        pair = g[s - 1] ** 2 + c[s - 1] ** 2 if inside else NAN
        fs = abs(g[s - 1]) + abs(c[s - 1]) if inside else NAN
        rows += [
            ("top_sum_squares", s, top, True, sq, n * n / 4.0),
            ("top_abs_sum", s, top, True, ab, n * math.sqrt((s - 1) / 2.0)),
            ("top_pair_squares", s, top, True, pair, n * n / (4.0 * (s - 1))),
            ("fs_upper", s, n >= 15 * (s - 1), False, fs, n / math.sqrt(2.0 * (s - 1)) - 1.0),
        ]
    for s in range(1, s_max + 1):
        inside = s <= n
        sq = math.fsum(g[n - i] ** 2 + c[n - i] ** 2 for i in range(1, s + 1)) if inside else NAN
        ab = math.fsum(abs(g[n - i]) + abs(c[n - i]) for i in range(1, s + 1)) if inside else NAN
        pair = g[n - s] ** 2 + c[n - s] ** 2 if inside else NAN
        fns = abs(g[n - s]) + abs(c[n - s]) if inside else NAN
        rows += [
            ("bottom_sum_squares", s, n > 2 * s, False, sq, (n / 2.0 + s) ** 2),
            ("bottom_abs_sum", s, n > 2 * s, False, ab, (n / 2.0 + s) * math.sqrt(2.0 * s)),
            ("bottom_pair_squares", s, n > 4**s, False, pair, (n / 2.0 + s) ** 2 / s),
            ("fns_upper", s, n >= 4**s, False, fns, n / math.sqrt(2.0 * s) + 1.0),
        ]
    rows.append(("subset_squares", n - 1, True, False, math.fsum(v**2 for v in g[1:]), n * n / 4.0))
    for s in range(2, min(s_max, n) + 1):
        rows.append(("nonpositive_eigenvalue", s, g[s - 1] <= tol, False, abs(g[s - 1]),
                     n / (2.0 * math.sqrt(n - s + 1))))
    k = 0
    while 4**k <= n:
        lhs = NAN
        if 1 <= k <= n:
            a, b = g[n - k], c[n - k]
            lhs = -max(min(-1.0 - a, 0.0 - b), min(-1.0 - b, 0.0 - a))
        rows.append(("ramsey_sign", k, k >= 1 and n >= 4**k, False, lhs, 0.0))
        k += 1
    for k in range(2, n + 1):
        rows += [
            ("weyl_upper", k, True, False, g[k - 1] + c[n - k + 1], -1.0),
            ("weyl_lower", k, True, False, -1.0, g[k - 1] + c[n - k]),
        ]
    rows.sort(key=lambda r: (r[0], -1 if r[1] is None else r[1]))
    return rows
