"""Computed (not measured) operation and byte counts of the row kernels.

Counts follow from (n, d) and the number of kept rows k alone, for float64
data, counting a multiply-add as two flops:

- products q_i = ||a_i|| * |<a_i, x>| (threshold search and filter each
  compute them): row norms 2nd + n, A x 2nd, abs and scale 2n;
  A is read twice (16nd bytes) and four n-vectors are written (32n).
  The threshold search also sorts q: about n log2 n comparisons.
- apply_filter: the products, the kept-row copy (8kd read, 8kd written) and
  the kept Gram as a dense product, 2kd^2 flops, reading the copy (8kd).
- gram: the dense product A^T A, 2nd^2 flops, reading A (8nd) and writing
  three d x d arrays for the mirrored result (24d^2).

numpy may route X^T X to a symmetric rank-k update, which does about half
the dense product's flops; the counts above are the dense ones.
"""

from __future__ import annotations

import ctypes
import math

_SC_LEVEL2_CACHE_SIZE = 191  # glibc <bits/confname.h>
_SC_LEVEL3_CACHE_SIZE = 194


def products(n: int, d: int) -> tuple[float, float]:
    return 4.0 * n * d + 3.0 * n, 16.0 * n * d + 32.0 * n


def threshold_search(n: int, d: int) -> tuple[float, float]:
    flops, nbytes = products(n, d)
    return flops + n * math.log2(max(n, 2)), nbytes + 16.0 * n


def apply_filter(n: int, d: int, kept: int) -> tuple[float, float]:
    flops, nbytes = products(n, d)
    return flops + 2.0 * kept * d * d, nbytes + 24.0 * kept * d


def gram(n: int, d: int) -> tuple[float, float]:
    return 2.0 * n * d * d, 8.0 * n * d + 24.0 * d * d


def cache_bytes() -> dict[str, int | None]:
    """Per-level cache sizes from glibc's sysconf (CPUID on x86), or None."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return {"l2": None, "llc": None}
    libc.sysconf.restype = ctypes.c_long
    out = {}
    for key, code in (("l2", _SC_LEVEL2_CACHE_SIZE), ("llc", _SC_LEVEL3_CACHE_SIZE)):
        val = libc.sysconf(code)
        out[key] = int(val) if val > 0 else None
    return out


def report(cells: list[dict], layers) -> dict:
    """Per-cell computed counts plus achieved rates from the traced spans.

    `layers` is a spans.LayerReport; its spans carry each call's (n, d) and
    apply_filter's removed count, so the achieved rate sums the computed
    work of exactly the calls that ran.
    """
    caches = cache_bytes()
    per_cell = []
    for cell in cells:
        n, d = int(cell["gen"]["n"]), int(cell["gen"]["d"])
        data = 8 * n * d
        per_cell.append({
            "cell": cell.get("cell"),
            "n": n, "d": d,
            "threshold_search_products": _fb(*threshold_search(n, d)),
            "apply_filter_all_kept": _fb(*apply_filter(n, d, n)),
            "gram": _fb(*gram(n, d)),
            # A plus the filter's kept-row copy are live together.
            "working_set_bytes": 2 * data,
            "working_set_over_llc": 2 * data / caches["llc"] if caches["llc"] else None,
        })
    achieved = {}
    for func, count in (("threshold_search", lambda s: threshold_search(s.rows, s.cols)),
                        ("apply_filter", lambda s: apply_filter(s.rows, s.cols,
                                                                s.rows - s.extra)),
                        ("gram", lambda s: gram(s.rows, s.cols))):
        layer = "matcore" if func == "gram" else "svtfilter"
        spans = [s for s in layers.returned(layer, func) if s.rows]
        busy = sum(s.dur for s in spans)
        if not busy:
            continue
        flops = sum(count(s)[0] for s in spans)
        nbytes = sum(count(s)[1] for s in spans)
        achieved[f"{layer}.{func}"] = {
            "calls": len(spans),
            "gflop_per_s": flops / busy / 1e9,
            "gbyte_per_s": nbytes / busy / 1e9,
            "rows_per_s": sum(s.rows for s in spans) / busy,
        }
    return {"label": "computed", "caches_bytes": caches, "cells": per_cell,
            "achieved_from_computed_counts": achieved}


def _fb(flops: float, nbytes: float) -> dict:
    return {"flops": flops, "bytes": nbytes}
