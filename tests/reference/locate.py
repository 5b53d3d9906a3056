"""Per-object piece locate: the scalar selection the batched locates replicate."""

import numpy as np


def locate_pieces(knot_times: np.ndarray, offsets: np.ndarray, ts) -> np.ndarray:
    """``(q, m)`` flat index of each object's piece at each time.

    For object ``i`` (knots ``[offsets[i], offsets[i+1])``) and time
    ``t`` this is ``searchsorted(knots_i, t, "right") - 1`` — the last
    knot at or before ``t`` — clamped into the object's piece range
    ``[0, n_i - 1)`` and offset into the flat CSR arrays.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    m = offsets.size - 1
    out = np.empty((ts.size, m), dtype=np.int64)
    for i in range(m):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        for r, t in enumerate(ts):
            piece = int(np.searchsorted(knot_times[lo:hi], t, "right")) - 1
            out[r, i] = lo + min(max(piece, 0), hi - lo - 2)
    return out
