import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import DATA, SCHEMAS

from medtab import dataset as ds, encoding
from medtab.models import LOGREG_C_GRID, train_logreg
from medtab.models.logreg import GRAD_TOL, loss_and_grad, sigmoid
from medtab.schema import load_schema


def random_instance(rng):
    n = int(rng.integers(5, 51))
    d = int(rng.integers(1, 11))
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n).astype(np.float64)
    return X, y


def fd_gradient(w, b, X, y, C, h=1e-5):
    """Central finite differences of the penalized objective."""
    d = len(w)
    grad = np.empty(d + 1)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        up, *_ = loss_and_grad(w + e, b, X, y, C)
        down, *_ = loss_and_grad(w - e, b, X, y, C)
        grad[j] = (up - down) / (2 * h)
    up, *_ = loss_and_grad(w, b + h, X, y, C)
    down, *_ = loss_and_grad(w, b - h, X, y, C)
    grad[d] = (up - down) / (2 * h)
    return grad


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            X, y = random_instance(rng)
            C = float(rng.choice(LOGREG_C_GRID))
            w = rng.normal(size=X.shape[1])
            b = float(rng.normal())
            _, gw, gb = loss_and_grad(w, b, X, y, C)
            analytic = np.append(gw, gb)
            fd = fd_gradient(w, b, X, y, C)
            rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd),
                                                      np.linalg.norm(analytic), 1e-12)
            assert rel < 1e-5, f"trial {trial}: relative error {rel}"


class TestTraining:
    def test_zero_init_predicts_half(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        assert np.allclose(sigmoid(X @ np.zeros(3) + 0.0), 0.5)

    def test_separable_1d(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = train_logreg(X, y, C=100.0)
        assert model.weights[0] > 0
        pred = (model.predict_proba(X) >= 0.5).astype(int)
        assert pred.tolist() == [0, 1]

    def test_converged_gradient_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            X, y = random_instance(rng)
            C = float(rng.choice(LOGREG_C_GRID))
            model = train_logreg(X, y, C)
            _, gw, gb = loss_and_grad(model.weights, model.bias, X, y, C)
            assert np.linalg.norm(np.append(gw, gb)) <= GRAD_TOL
            assert model.converged

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X, y = random_instance(rng)
        a = train_logreg(X, y, 1.0)
        b = train_logreg(X, y, 1.0)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_penalty_monotone_in_regularization(self):
        # smaller C (stronger penalty weight) cannot produce a larger penalized
        # objective at its own optimum than it assigns to the weaker C's optimum
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 4))
        y = (X[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(np.float64)
        models = {C: train_logreg(X, y, C) for C in (0.01, 0.1, 1.0, 10.0)}
        for C_small, C_big in [(0.01, 0.1), (0.1, 1.0), (1.0, 10.0)]:
            m_small = models[C_small]
            m_big = models[C_big]
            loss_small, *_ = loss_and_grad(m_small.weights, m_small.bias, X, y, C_small)
            cross, *_ = loss_and_grad(m_big.weights, m_big.bias, X, y, C_small)
            assert loss_small <= cross + 1e-9

    def test_objective_at_convergence_non_increasing_in_c(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(50, 5))
        y = (X[:, 0] - X[:, 3] + 0.4 * rng.normal(size=50) > 0).astype(np.float64)
        values = []
        for C in LOGREG_C_GRID:
            model = train_logreg(X, y, C)
            loss, *_ = loss_and_grad(model.weights, model.bias, X, y, C)
            values.append(loss)
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            train_logreg(np.zeros((4, 1)), np.array([0, 1, 0, 1.0]), C=0.0)

    def test_monotone_feature_increases_probability(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train_logreg(X, y, C=1.0)
        grid = np.linspace(-3, 3, 13)[:, None]
        probs = model.predict_proba(grid)
        assert np.all(np.diff(probs) > 0)

    def test_dimension_mismatch_rejected(self):
        model = train_logreg(np.zeros((4, 2)), np.array([0, 1, 0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((3, 5)))


# Training on 1 - y mirrors every Newton step: the gradient and the Hessian
# of the flipped objective at (-w, -b) are the negated gradient and the same
# Hessian at (w, b). So the two runs take the same number of steps and end at
# negated weights up to rounding. Measured gaps were at most 5e-13 of the
# largest weight; the tolerance leaves room for other inputs and machines.
FLIP_TOL = 1e-10


def assert_label_flip_negates(X, y, C):
    model, flipped = train_logreg(X, y, C), train_logreg(X, 1.0 - y, C)
    scale = max(1.0, float(np.max(np.abs(model.weights))), abs(model.bias))
    assert np.max(np.abs(model.weights + flipped.weights)) <= FLIP_TOL * scale
    assert abs(model.bias + flipped.bias) <= FLIP_TOL * scale
    assert (flipped.n_iter, flipped.converged) == (model.n_iter, model.converged)


class TestLabelFlip:
    """Metamorphic property: logreg trained on flipped labels negates its
    weights and intercept."""

    @pytest.mark.parametrize("name", ["heart", "hepatitis"])
    @pytest.mark.parametrize("C", [0.001, 1.0, 100.0])
    def test_bundled_tables(self, name, C):
        table = ds.load_csv(DATA / f"{name}.csv", load_schema(SCHEMAS / f"{name}.schema.json"))
        _, _, X, y = encoding.prepare(table, 7)
        assert_label_flip_negates(X["train"], y["train"].astype(np.float64), C)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(LOGREG_C_GRID))
    def test_generated_matrices(self, seed, C):
        rng = np.random.default_rng(seed)
        X, y = random_instance(rng)
        X *= rng.choice([0.1, 1.0, 10.0])
        assert_label_flip_negates(X, y, C)
