"""Limited-memory quasi-Newton minimization with Armijo backtracking.

Drives any (objective, gradient) callable pair over a flat parameter vector.
The implementation is the standard two-loop recursion over the most recent
curvature pairs, with the initial Hessian scaled by ``<s, y> / <y, y>``.
The memory size and the line search are fixed module constants;
:class:`SolverConfig` sets only when a solve stops. Everything is plain
float64 numpy, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError


class Termination(enum.Enum):
    GRAD_TOLERANCE = "GradTolerance"
    OBJ_TOLERANCE = "ObjTolerance"
    MAX_ITERATIONS = "MaxIterations"
    LINE_SEARCH_FAILURE = "LineSearchFailure"


#: Curvature pairs kept by the two-loop recursion.
MEMORY_PAIRS = 10
#: Sufficient-decrease constant of the Armijo test.
ARMIJO_C1 = 1e-4
#: Factor each backtrack shrinks the step by.
BACKTRACK_FACTOR = 0.5
#: Backtracks tried before a line search fails.
MAX_BACKTRACKS = 40
#: Step tried first along each direction.
INITIAL_STEP = 1.0


@dataclass(frozen=True)
class SolverConfig:
    """When a solve stops: an iteration cap and two tolerances.

    The defaults suit every objective in this package. The line search and
    the curvature memory use the fixed module constants above.
    """

    max_iterations: int = 1000
    grad_inf_tolerance: float = 1e-6
    rel_obj_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")


@dataclass
class SolveTrace:
    """What happened during a solve; ``objective_history`` is non-increasing."""

    iterations: int
    objective_history: list[float]
    final_grad_inf_norm: float
    termination_reason: Termination


def _direction(grad, s_list, y_list, rho_list):
    """Two-loop recursion; returns a descent direction candidate."""
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if s_list:
        gamma = float(s_list[-1] @ y_list[-1]) / float(y_list[-1] @ y_list[-1])
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        beta = rho * float(y @ q)
        q += (a - beta) * s
    return -q


def minimize(objective_fn, gradient_fn, start, cfg: SolverConfig | None = None):
    """Minimize ``objective_fn`` from ``start``.

    Parameters
    ----------
    objective_fn, gradient_fn:
        Callables over a 1-D float64 point; the gradient may be a subgradient
        for non-smooth objectives, in which case a failed line search is a
        benign terminal state near the optimum.
    start:
        Initial point; the objective must be finite there.

    Returns
    -------
    (point, SolveTrace):
        The best point seen and the solve trace.
    """
    cfg = cfg or SolverConfig()
    x = np.array(start, dtype=np.float64).ravel()
    f = float(objective_fn(x))
    if not np.isfinite(f):
        raise NumericalError(f"objective is not finite at the start point: {f}")
    g = np.asarray(gradient_fn(x), dtype=np.float64).ravel()

    history = [f]
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []
    reason = Termination.MAX_ITERATIONS
    iterations = 0

    for _ in range(cfg.max_iterations):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= cfg.grad_inf_tolerance:
            reason = Termination.GRAD_TOLERANCE
            break

        p = _direction(g, s_list, y_list, rho_list)
        gtp = float(g @ p)
        if not np.isfinite(gtp) or gtp >= 0.0:
            # Memory built from subgradients can stop being useful; restart
            # from steepest descent.
            s_list.clear()
            y_list.clear()
            rho_list.clear()
            p = -g
            gtp = float(g @ p)

        step = INITIAL_STEP
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * p
            f_new = float(objective_fn(x_new))
            if np.isfinite(f_new) and f_new <= f + ARMIJO_C1 * step * gtp:
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            reason = Termination.LINE_SEARCH_FAILURE
            break

        g_new = np.asarray(gradient_fn(x_new), dtype=np.float64).ravel()
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > MEMORY_PAIRS:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)

        obj_drop = f - f_new
        x, f, g = x_new, f_new, g_new
        history.append(f)
        iterations += 1
        if obj_drop <= cfg.rel_obj_tolerance * max(1.0, abs(f)):
            reason = Termination.OBJ_TOLERANCE
            break

    trace = SolveTrace(
        iterations=iterations,
        objective_history=history,
        final_grad_inf_norm=float(np.max(np.abs(g))) if g.size else 0.0,
        termination_reason=reason,
    )
    return x, trace
