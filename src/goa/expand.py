"""Level expansion: array-based Latin hypercubes and the column-orthogonal
rotation of two-level strength-3 groups."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Design, Group, GroupedDesign, annotate
from .errors import ParameterRangeError, ShapeMismatchError, StrengthPrereqError


@dataclass
class RealDesign:
    """Real-valued design produced by a level expansion.

    `matrix` carries the working coordinates; `int_matrix`, when present,
    is an exact integer form (fine levels for a Latin hypercube, doubled
    rotated levels for the rotation) that exact tests run against.
    """

    matrix: np.ndarray
    origin: str
    int_matrix: np.ndarray | None = None
    normalized: np.ndarray | None = None

    @property
    def runs(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


def oa_to_lhd(design: Design, seed: int = 0) -> RealDesign:
    """Expand each level stratum of each column into distinct fine levels.

    Column c uses its own stream derived from (seed, c); within the column
    the N/s runs at level l receive a random permutation of the positions
    l*N/s, ..., (l+1)*N/s - 1, so each column becomes a permutation of
    0..N-1 while the parent's stratification survives in every projection
    up to the parent's strength.  Reported coordinates are the centered
    values (pos + 0.5)/N - 0.5 on [-0.5, 0.5].
    """
    if seed < 0:
        raise ParameterRangeError(f"the rng seed must be non-negative, got {seed}")
    n_runs, s = design.runs, design.s
    per, rem = divmod(n_runs, s)
    if rem:
        raise ShapeMismatchError("run count must be divisible by the level count")
    fine = np.zeros(design.matrix.shape, dtype=np.int64)  # ranks up to N - 1
    for c in range(design.cols):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        col = design.matrix[:, c]
        for level in range(s):
            (where,) = np.nonzero(col == level)
            fine[where, c] = level * per + rng.permutation(per)
    centered = (fine + 0.5) / n_runs - 0.5
    return RealDesign(centered, f"lhd(seed={seed}) of {design.origin}", int_matrix=fine)


# Rotation for two-level strength-3 groups of eight columns; each half of a
# group is multiplied by Q, giving eight equally spaced levels per column
# and an exactly diagonal Gram matrix.
ROTATION_Q = np.array(
    [
        [4, -2, -1, 0],
        [2, 4, 0, 1],
        [1, 0, 4, -2],
        [0, -1, 2, 4],
    ],
    dtype=np.int64,
)


def rotate_columns(gd: GroupedDesign) -> RealDesign:
    """Column-orthogonal design from a two-level GOA with 8-column groups.

    Levels are centered to +-1/2, each group D_i = (D_i1, D_i2) is split
    into two 4-column halves and D_ij' = D_ij Q.  All arithmetic runs on
    the doubled +-1 levels so orthogonality checks stay in exact integers;
    `normalized` rescales the eight output levels back into [-1/2, 1/2].
    """
    design = gd.design
    if design.s != 2:
        raise ShapeMismatchError("rotation is defined for two-level designs")
    if not gd.groups:
        raise ShapeMismatchError("rotation needs a grouped design")
    for grp in gd.groups:
        if grp.size != 8:
            raise ShapeMismatchError(f"group of {grp.size} columns; need 8")
    prereq = annotate(GroupedDesign(design, [Group(grp.columns, 3) for grp in gd.groups],
                                    claimed_t0=0))
    if any(grp.verified_strength < 3 for grp in prereq.groups):
        raise StrengthPrereqError("every group must have strength 3")
    columns = np.concatenate([grp.columns for grp in gd.groups])
    # levels +-1 = twice the centered +-1/2, widened first: in uint8, 2 * 0 - 1 is 255
    halves = 2 * design.matrix[:, columns].astype(np.int64) - 1
    runs, width = halves.shape
    # twice the rotated levels; odd integers in -7..7
    int2 = (halves.reshape(runs, width // 4, 4) @ ROTATION_Q).reshape(runs, width)
    return RealDesign(
        int2 / 2.0,
        f"rotate of {design.origin}",
        int_matrix=int2,
        normalized=int2 / 14.0,
    )
