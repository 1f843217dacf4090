"""User selection: one stable best-first ordering of a score.

The homogeneous scheduler scores users by ||h_hat_k||^2 and the weighted
one by p_star_k * ||z_k||^2; both serve the N leading users of `best_first`,
the Monte Carlo kernel's ordering included.  Ties go to the lower user
index, so selections are deterministic and reproducible.
"""

from __future__ import annotations

import numpy as np


def best_first(scores: np.ndarray) -> np.ndarray:
    """User indices by descending score along the last axis; the stable sort
    on -score keeps lower indices first among ties."""
    return np.argsort(-scores, axis=-1, kind="stable")
