"""The percentile rule for reported timings.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, with the sample count stated; a
percentile without enough samples behind it is not reported at all.
"""

import math

TAIL_FLOOR = 10


def percentile(values, pct):
    """Nearest-rank percentile, or None when fewer than TAIL_FLOOR samples lie beyond it.

    So p90 needs at least 100 samples and p50 at least 20.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {pct}")
    n = len(values)
    rank = math.ceil(pct / 100 * n)
    if rank < 1 or n - rank < TAIL_FLOOR:
        return None
    return sorted(values)[rank - 1]

