"""Limited-memory quasi-Newton minimization with Armijo backtracking.

Drives any objective callable over a flat parameter vector: one call
prices a point, and the gradient there is asked for only at the start and
at accepted steps, never at a rejected backtrack.
The implementation is the standard two-loop recursion over the most recent
curvature pairs, with the initial Hessian scaled by ``<s, y> / <y, y>``.
The memory size and the line search are fixed module constants;
:class:`SolverConfig` sets only when a solve stops. Everything is plain
float64 numpy, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import enum
import numbers
from collections import deque
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
    the curvature memory use the fixed module constants above. The cap must
    be an integer of at least 1 and each tolerance a number of at least 0:
    a tolerance of 0 turns its stopping rule off, and a NaN or negative one
    is refused rather than silently doing the same.
    """

    max_iterations: int = 1000
    grad_inf_tolerance: float = 1e-6
    rel_obj_tolerance: float = 1e-10

    def __post_init__(self):
        if not (isinstance(self.max_iterations, numbers.Integral)
                and self.max_iterations >= 1):
            raise DomainError(f"max_iterations must be an integer >= 1, "
                              f"got {self.max_iterations!r}")
        for name in ("grad_inf_tolerance", "rel_obj_tolerance"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and value >= 0.0):
                raise DomainError(f"{name} must be a number >= 0, "
                                  f"got {value!r}")


@dataclass
class SolveTrace:
    """What happened during a solve; ``objective_history`` is non-increasing.

    ``rows_priced`` sums the ``rows`` of every objective value of the solve:
    the data rows its passes scored, which is not what they read. A
    working-set value scores the rows the set holds and reads none; a
    scaled backtrack reads and scores none; the zero start scores none but,
    over a stream, reads the file once.
    """

    iterations: int
    objective_history: list[float]
    final_grad_inf_norm: float
    termination_reason: Termination
    rows_priced: int = 0


def _direction(grad, memory):
    """Two-loop recursion over ``(s, y, rho)`` triples; returns a descent
    direction candidate."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if memory:
        s, y, _ = memory[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        beta = rho * float(y @ q)
        q += (a - beta) * s
    return -q


def minimize(objective, start, cfg: SolverConfig | None = None):
    """Minimize ``objective`` from ``start``.

    Parameters
    ----------
    objective:
        Callable over a 1-D float64 point ``x`` returning its value there,
        such as an :class:`~gcm.objectives.ObjectiveValue`: ``.total`` is
        the objective (a float) and ``.gradient()`` the gradient at ``x``,
        a vector shaped like ``x``. The gradient may be a subgradient for
        non-smooth objectives, in which case a failed line search is a
        benign terminal state near the optimum. A ``.rows`` attribute, when
        present, is summed into ``SolveTrace.rows_priced``.
    start:
        Initial point; the objective must be finite there.

    Returns
    -------
    (point, SolveTrace):
        The best point seen and the solve trace.
    """
    cfg = cfg or SolverConfig()
    x = np.array(start, dtype=np.float64).ravel()
    value = objective(x)
    rows_priced = getattr(value, "rows", 0)
    f = value.total
    if not np.isfinite(f):
        raise NumericalError(f"objective is not finite at the start point: {f}")
    g = np.asarray(value.gradient(), dtype=np.float64).ravel()

    history = [f]
    memory: deque[tuple[np.ndarray, np.ndarray, float]] = deque(
        maxlen=MEMORY_PAIRS)
    reason = Termination.MAX_ITERATIONS
    iterations = 0

    for _ in range(cfg.max_iterations):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= cfg.grad_inf_tolerance:
            reason = Termination.GRAD_TOLERANCE
            break

        p = _direction(g, memory)
        gtp = float(g @ p)
        if not np.isfinite(gtp) or gtp >= 0.0:
            # Memory built from subgradients can stop being useful; restart
            # from steepest descent.
            memory.clear()
            p = -g
            gtp = float(g @ p)

        step = INITIAL_STEP
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * p
            value = objective(x_new)
            rows_priced += getattr(value, "rows", 0)
            f_new = value.total
            if np.isfinite(f_new) and f_new <= f + ARMIJO_C1 * step * gtp:
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            reason = Termination.LINE_SEARCH_FAILURE
            break

        g_new = np.asarray(value.gradient(), dtype=np.float64).ravel()
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            memory.append((s, y, 1.0 / sy))

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
        rows_priced=rows_priced,
    )
    return x, trace
