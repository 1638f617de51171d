"""Finite-difference stencils used for cross-checks, all O(h^4), and their one step rule.

These exist to probe closed-form quantities independently; production
evaluation paths never difference anything (gradients and derivatives all
have closed radial forms).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DomainError

_ONE_SIDED = np.array([[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1]]) / 12.0  # forward, first two samples


def step(x, rel, lo, seams=()):
    """min(rel x, (x - lo) / 2, |x - b| / 2 for each seam b): a stencil of this
    step reads x +- 2h on the smooth piece that holds x, never below lo."""
    x = np.asarray(x, float)
    return reduce(np.minimum, (0.5 * np.abs(x - b) for b in seams), np.minimum(rel * x, 0.5 * (x - lo)))


#: the nodes x + k h of the five-point stencils; the first derivative skips the centre
OFFSETS, FIRST = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), [0, 1, 3, 4]


def nodes(x, h):
    """The stencil nodes x + OFFSETS h on a new last axis; h broadcasts against x."""
    return np.asarray(x, float)[..., None] + np.asarray(h, float)[..., None] * OFFSETS


def first_from(v, h):
    """O(h^4) first derivative from the values v at ``nodes(x, h)[..., FIRST]``."""
    return (v[..., 0] - 8 * v[..., 1] + 8 * v[..., 2] - v[..., 3]) / (12 * h)


def second_from(v, h):
    """O(h^4) second derivative from the values v at ``nodes(x, h)``; it divides by h twice, as h^2 may overflow."""
    return (-v[..., 0] + 16 * v[..., 1] - 30 * v[..., 2] + 16 * v[..., 3] - v[..., 4]) / (12 * h) / h


def grid_derivative(y, dt, cuts=()):
    """O(dt^4) derivative on a uniform grid, split before each cut index that leaves 5 samples or
    more on both sides: five-point stencils, central inside a piece, one-sided at its two ends."""
    y = np.asarray(y, float)
    if len(y) < 5:
        raise DomainError(f"a five-point series derivative needs 5 samples, got {len(y)}")
    bounds = [0]
    for k in sorted(cuts):
        if k - bounds[-1] >= 5 and len(y) - k >= 5:
            bounds.append(k)
    out = np.empty_like(y)
    out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / 12.0
    for a, b in zip(bounds, bounds[1:] + [len(y)]):
        out[a:a + 2] = _ONE_SIDED @ y[a:a + 5]
        out[b - 2:b] = -(_ONE_SIDED @ y[b - 5:b][::-1])[::-1]
    return out / dt
