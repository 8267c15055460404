"""L2-regularized logistic regression trained by a damped Newton method.

Objective: mean cross-entropy plus ``||w||^2 / (2 * C * n)`` with the bias
unpenalized. Training starts from zeros, is fully deterministic, and stops
when the gradient norm drops to 1e-6 or after 100 iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import inputs

MAX_ITER = 100
GRAD_TOL = 1e-6
LOGREG_C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    C: float
    n_iter: int = 0
    converged: bool = False

    GRID = tuple({"C": c} for c in LOGREG_C_GRID)  # smallest C, most regularized, first

    @classmethod
    def fit_grid(cls, X, y, X_val):
        """(params, model, validation probabilities) for each ``GRID`` point,
        each fitted on its own."""
        for params in cls.GRID:
            model = train_logreg(X, y, **params)
            yield params, model, model.predict_proba(X_val)

    @staticmethod
    def doc_check(width: int) -> inputs.Table:
        """The check of what ``to_doc`` writes for a model of ``width`` columns."""
        return inputs.Table({"weights": inputs.per_column(width), "bias": inputs.NUMBER,
                             "C": inputs.NUMBER, "n_iter": inputs.COUNT,
                             "converged": inputs.BOOL})

    def importances(self) -> np.ndarray:
        return self.weights.copy()

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.weights):
            raise ValueError(f"expected {len(self.weights)} columns, got {X.shape[1]}")
        return sigmoid(X @ self.weights + self.bias)

    def to_doc(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias, "C": self.C,
                "n_iter": self.n_iter, "converged": self.converged}

    @classmethod
    def from_doc(cls, doc: dict) -> "LogRegModel":
        return cls(weights=np.asarray(doc["weights"], dtype=np.float64), bias=doc["bias"],
                   C=doc["C"], n_iter=doc["n_iter"], converged=doc["converged"])


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grad(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float):
    """Penalized objective value and its gradient (w part, then bias)."""
    n = len(y)
    z = X @ w + b
    # log(1 + exp(-z*s)) written in an overflow-safe form
    loss = float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))
    loss += float(w @ w) / (2.0 * C * n)
    p = sigmoid(z)
    grad_w = X.T @ (p - y) / n + w / (C * n)
    grad_b = float(np.mean(p - y))
    return loss, grad_w, grad_b


def train_logreg(X, y, C: float) -> LogRegModel:
    if C <= 0:
        raise ValueError("C must be positive")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    loss, grad_w, grad_b = loss_and_grad(w, b, X, y, C)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss on the initial point; degenerate input")
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        grad = np.append(grad_w, grad_b)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= GRAD_TOL:
            return LogRegModel(weights=w, bias=b, C=C, n_iter=n_iter - 1, converged=True)

        p = sigmoid(X @ w + b)
        s = p * (1.0 - p)
        H = np.empty((d + 1, d + 1))
        Xs = X * s[:, None]
        H[:d, :d] = X.T @ Xs / n + np.eye(d) / (C * n)
        H[:d, d] = Xs.sum(axis=0) / n
        H[d, :d] = H[:d, d]
        H[d, d] = s.sum() / n
        H[np.diag_indices(d + 1)] += 1e-10  # keeps the solve stable near separation
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:
            step = -grad

        if float(step @ grad) >= 0:  # not a descent direction; fall back
            step = -grad

        t = 1.0
        for _ in range(60):  # Armijo backtracking
            w_new = w + t * step[:d]
            b_new = b + t * step[d]
            new_loss, new_gw, new_gb = loss_and_grad(w_new, b_new, X, y, C)
            if np.isfinite(new_loss) and new_loss <= loss + 1e-4 * t * float(step @ grad):
                break
            t *= 0.5
        w, b, loss, grad_w, grad_b = w_new, b_new, new_loss, new_gw, new_gb

    gnorm = float(np.linalg.norm(np.append(grad_w, grad_b)))
    return LogRegModel(weights=w, bias=b, C=C, n_iter=n_iter, converged=gnorm <= GRAD_TOL)
