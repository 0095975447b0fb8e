"""Cross-position statistics: Pearson correlation, its bootstrap CI, summaries.

``pearson`` and ``bootstrap_ci`` take two plain columns, ``x`` and ``y``,
paired by place; the caller chooses which pairs enter them. ``summarize``
knows no report columns either: the report names the ones it sums up.

One kernel, ``_pearson_rows``, computes every correlation: ``pearson``'s on
the one row that takes each pair once, ``bootstrap_ci``'s on resample rows.

Bootstrap resampling uses numpy's PCG64 generator seeded explicitly, so a
(seed, resamples) pair maps to one exact result. Standard deviations are
sample (n − 1) throughout; ``report.build_report`` records both conventions
in the report's notes. numpy is imported by the functions that use
it, so importing this module (and the CLI, for ``build``) does not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

RNG_ALGORITHM = "numpy-PCG64"
STD_CONVENTION = "sample(n-1)"
BOOTSTRAP_BLOCK_ROWS = 64  # resamples evaluated together

if TYPE_CHECKING:
    import numpy as np


class StatsError(ValueError):
    """Raised when a correlation or summary is undefined for the given sample."""


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of the pairs (x[i], y[i]) (n >= 2, neither column constant)."""
    import numpy as np

    n = len(x)
    if n < 2:
        raise StatsError(f"need at least 2 pairs, got {n}")
    # the one resample that takes every pair once, in order
    values = _pearson_rows(np.array(x, dtype=float), np.array(y, dtype=float),
                           np.arange(n)[None, :])
    if not len(values):
        raise StatsError("correlation undefined: constant column")
    return float(values[0])


def _pearson_rows(x: np.ndarray, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pearson of (x, y) over each row of resample indices, skipping constant ones."""
    import numpy as np

    xm = x[rows]
    xm -= xm.mean(axis=1, keepdims=True)
    ym = y[rows]
    ym -= ym.mean(axis=1, keepdims=True)
    denominator = np.sqrt((xm * xm).sum(axis=1) * (ym * ym).sum(axis=1))
    valid = denominator > 0.0
    return (xm * ym).sum(axis=1)[valid] / denominator[valid]


def bootstrap_ci(x: Sequence[float], y: Sequence[float], resamples: int = 10000,
                 seed: int = 0) -> Tuple[float, float]:
    """Percentile 95% bootstrap interval (lower, upper) of ``pearson(x, y)``.

    Resamples pairs with replacement; resamples where either column is
    constant are skipped. More than 50% degenerate resamples is an error.
    Deterministic for a given seed.
    """
    import numpy as np

    n = len(x)
    if n < 3:
        raise StatsError(f"need at least 3 pairs to bootstrap, got {n}")
    if resamples < 1000:
        raise StatsError(f"need at least 1000 resamples, got {resamples}")
    pearson(x, y)  # a constant column is an error before the draw
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    # one block of resamples at a time bounds the working memory. Drawing
    # each block's indices in turn gives the same values, row for row, as
    # one draw of the whole (resamples, n) matrix (TestBootstrapBits checks
    # this), and each row is reduced on its own, so the values are a
    # whole-matrix pass's
    blocks = []
    for start in range(0, resamples, BOOTSTRAP_BLOCK_ROWS):
        rows = min(BOOTSTRAP_BLOCK_ROWS, resamples - start)
        blocks.append(_pearson_rows(x, y, rng.integers(0, n, size=(rows, n))))
    values = np.concatenate(blocks)
    if len(values) < resamples / 2:
        raise StatsError(
            f"{resamples - len(values)} of {resamples} resamples were degenerate")
    values.sort()
    return _quantile(values, 0.025), _quantile(values, 0.975)


def _quantile(ordered, q: float) -> float:
    """The ``q`` quantile of the ascending values ``ordered``, bit for bit as
    np.quantile's default ``linear`` method gives it, without the import of
    ``numpy.ma`` that np.quantile makes on its first call."""
    index = (len(ordered) - 1) * q
    below = math.floor(index)
    if below >= len(ordered) - 1:
        return float(ordered[-1])
    a, b = ordered[below], ordered[below + 1]
    gamma = index - below
    # numpy interpolates from the nearer end
    return float(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)


def mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Arithmetic mean and sample (n − 1) standard deviation."""
    import numpy as np

    if len(values) < 2:
        raise StatsError(f"need at least 2 values, got {len(values)}")
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1))


def summarize(rows: Sequence[tuple], columns: Sequence[str]
              ) -> Dict[str, Optional[Tuple[float, float]]]:
    """Per-column (mean, sample std) over the defined cells of ``rows``, for
    each of the ``columns`` the caller names; None where fewer than 2 cells
    are defined."""
    out: Dict[str, Optional[Tuple[float, float]]] = {}
    for column in columns:
        values = [getattr(row, column) for row in rows
                  if getattr(row, column) is not None]
        out[column] = mean_std(values) if len(values) >= 2 else None
    return out
