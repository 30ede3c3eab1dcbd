"""Main-effects estimation study for three-level grouped designs.

Factors live on the [0, 2] scale with linear and quadratic orthogonal
contrasts x_l = sqrt(6)(x-1)/2 and x_q = sqrt(2){3(x-1)^2 - 2}/2.  The
response is additive over groups: each group contributes its factors'
main effects plus all two-factor interactions inside the group, and the
study measures how well ordinary least squares on the main-effects-only
model recovers the main effects despite those interactions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf as gflib
from .designs import Design, GroupedDesign
from .errors import GoaError, ParameterRangeError, SingularModelMatrixError, WrongLevelCountError

_SQ6 = math.sqrt(6.0)
_SQ2 = math.sqrt(2.0)


def contrast_columns(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = levels.astype(float)
    return _SQ6 * (x - 1.0) / 2.0, _SQ2 * (3.0 * (x - 1.0) ** 2 - 2.0) / 2.0


def _group_columns(gd: GroupedDesign) -> list[list[int]]:
    if gd.groups:
        return [list(g.columns) for g in gd.groups]
    return [list(range(gd.design.cols))]


def _interaction_count(groups) -> int:
    """4 C(m_i, 2) interaction contrasts for each group of m_i factors."""
    return sum(2 * len(group) * (len(group) - 1) for group in groups)


def model_matrix(design: Design, groups=None, interactions: bool = False) -> np.ndarray:
    """Intercept + (linear, quadratic) per factor, optionally followed by
    the four interaction contrasts (ll, lq, ql, qq) for every factor pair
    inside a group, each group's pairs in lexicographic order.  A matrix
    above gflib.DESK_CELL_LIMIT cells is refused before it is built."""
    if design.s != 3:
        raise WrongLevelCountError("the simulation model is three-level")
    runs, n = design.matrix.shape
    groups = groups if groups is not None else [range(n)]
    gflib.check_cells("model matrix", runs,
                      1 + 2 * n + (_interaction_count(groups) if interactions else 0))
    lin, quad = contrast_columns(design.matrix)
    blocks = [np.ones((runs, 1)), np.stack([lin, quad], axis=2).reshape(runs, 2 * n)]
    if interactions:
        # np.triu_indices walks a group's pairs in lexicographic order
        pairs = [np.asarray(group, dtype=np.intp)[np.array(np.triu_indices(len(group), 1))]
                 for group in groups]
        a, b = np.hstack([np.empty((2, 0), dtype=np.intp), *pairs])
        blocks.append(np.stack([lin[:, a] * lin[:, b], lin[:, a] * quad[:, b],
                                quad[:, a] * lin[:, b], quad[:, a] * quad[:, b]],
                               axis=2).reshape(runs, 4 * len(a)))
    return np.hstack(blocks)


@dataclass
class SimModel:
    """Coefficient scales and replication settings of the bias study."""

    main_sd: float = 10.0
    noise_sd: float = 1.0
    reps: int = 1000
    seed: int = 0


@dataclass
class SimResult:
    design: str
    sigma: float
    mean: float
    se: float
    values: np.ndarray


def run_bias_study(designs, sigmas, model: SimModel | None = None) -> list[SimResult]:
    """Average root mean squared main-effects error over replicates.

    `designs` is a list of (label, GroupedDesign).  Per replicate the
    intercept and main effects are N(0, main_sd^2), interactions are drawn
    as standard normals and scaled by sigma, noise is N(0, noise_sd^2);
    main effects are then estimated by least squares on the main-effects
    matrix and scored by e = sqrt(||bhat - b||^2 / (2n)).  Replicate r of
    every design and sigma shares the stream (seed, r), so the comparison
    across sigmas and designs is paired.
    """
    model = model or SimModel()
    if model.reps < 2:
        raise GoaError(f"the bias study needs at least 2 replicates, got {model.reps}")
    if model.seed < 0:
        raise ParameterRangeError(f"the rng seed must be non-negative, got {model.seed}")
    prepared = []
    for label, gd in designs:
        x_full = model_matrix(gd.design, _group_columns(gd), interactions=True)
        n_main = 1 + 2 * gd.design.cols
        x_main = x_full[:, :n_main]
        if np.linalg.matrix_rank(x_main) < n_main:
            raise SingularModelMatrixError(f"{label}: main-effects matrix is singular")
        solver = np.linalg.inv(x_main.T @ x_main) @ x_main.T
        prepared.append((label, gd, x_main, x_full, solver))

    results = []
    for label, gd, x_main, x_full, solver in prepared:
        n = gd.design.cols
        n_main = x_main.shape[1]
        n_inter = x_full.shape[1] - n_main
        per_sigma = {sigma: np.empty(model.reps) for sigma in sigmas}
        for rep in range(model.reps):
            rng = np.random.default_rng(np.random.SeedSequence(model.seed, spawn_key=(rep,)))
            beta_main = model.main_sd * rng.standard_normal(n_main)  # includes intercept
            z_inter = rng.standard_normal(n_inter)
            eps = model.noise_sd * rng.standard_normal(gd.design.runs)
            base = x_main @ beta_main + eps
            for sigma in sigmas:
                y = base + x_full[:, n_main:] @ (sigma * z_inter)
                bhat = solver @ y
                err = bhat[1:] - beta_main[1:]
                per_sigma[sigma][rep] = math.sqrt(float(err @ err) / (2 * n))
        for sigma in sigmas:
            vals = per_sigma[sigma]
            results.append(
                SimResult(
                    design=label,
                    sigma=sigma,
                    mean=float(vals.mean()),
                    se=float(vals.std(ddof=1) / math.sqrt(model.reps)),
                    values=vals,
                )
            )
    return results


@dataclass
class ClarityReport:
    """Largest inner products between main-effect and interaction columns."""

    max_abs: float
    max_abs_same_group: float
    n_main: int
    n_interactions: int


def clarity_check(gd: GroupedDesign) -> ClarityReport:
    """Cross-Gram between all main-effect contrasts and all within-group
    interaction contrasts; zero everywhere means every main effect is clear
    of every modelled two-factor interaction.  A cross-Gram or model matrix
    above gflib.DESK_CELL_LIMIT cells is refused before either is built."""
    groups = _group_columns(gd)
    n = gd.design.cols
    gflib.check_cells("clarity cross-Gram", 2 * n, _interaction_count(groups))
    full = model_matrix(gd.design, groups, interactions=True)
    n_main = 1 + 2 * n
    mains = full[:, 1:n_main]
    inters = full[:, n_main:]
    if inters.shape[1] == 0:
        return ClarityReport(0.0, 0.0, mains.shape[1], 0)
    cross = np.abs(mains.T @ inters)

    sizes = np.array([len(group) for group in groups])
    labels = np.arange(len(groups))
    group_of = np.full(n, -1)
    group_of[np.concatenate(groups)] = np.repeat(labels, sizes)
    inter_group = np.repeat(labels, 2 * sizes * (sizes - 1))  # 4 C(m_i, 2) columns each
    same = np.repeat(group_of, 2)[:, None] == inter_group
    max_same = float(cross[same].max()) if same.any() else 0.0
    return ClarityReport(float(cross.max()), max_same, mains.shape[1], inters.shape[1])
