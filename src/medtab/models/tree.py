"""Greedy binary decision trees: a Gini-impurity classifier and a
squared-error regression tree (the boosting base learner).

Split search is exact: candidate thresholds are midpoints between consecutive
distinct sorted values per column, the chosen split maximizes the weighted
impurity decrease, and ties break toward the lower column index then the
lower threshold. Training is deterministic. A tie is between computed gains:
two splits of equal gain in exact arithmetic can compute one rounding apart,
and the larger computed gain wins. So GBDT trained on flipped labels can
choose the other of two mirror-image splits (``ExerciseAngina_Y`` for
``ExerciseAngina_N`` on heart) and is then no mirror image of the original
model; see docs/metrics.md.

Both trees share one engine and one grower. A ``NodeRows`` holds one node's
training rows, in row order and per column in value order. The root argsorts
each column once (a stable sort, so tied rows stay in row order), and
splitting a node keeps the order in both children, because a boolean filter
of a sorted list is sorted. So every node sees exactly what a stable
per-node argsort would give, and its cumulative sums, gains and thresholds
are the same bit for bit.

A node's split search is one 2-D scan. The first search of a node gathers
its values in sorted order and finds its cuts between distinct neighbouring
values, with the row counts on each side; the node keeps them. Every search
gathers the node's statistics (targets or labels) in sorted order, takes
cumulative sums along each column, scores the cuts and takes the first
maximum in (column, position) order, which is the tie rule above.

Squared error needs two prefix sums, of the targets and of their squares.
They are the real and imaginary parts of one complex vector, so one complex
cumulative sum gives both: complex addition adds the real parts and the
imaginary parts separately, each in the order a float cumulative sum adds
them, so the sums and gains are bit for bit those of two float sums. The
node totals stay float sums, since a complex sum pairs its partial sums
differently. A regression node whose targets are all equal is a leaf, as a
pure node is for the classifier: no split can separate its rows, and only
rounding noise in the sums could pass ``SSE_MIN_GAIN``.

A node also remembers the two children of its last split. Boosting grows
tree after tree on the same rows from one root (``train_regression_tree``'s
``node_rows``), and when a round cuts a node where the last one did, the
children, with their layouts and their own remembered splits, are reused
instead of partitioned again. Only the target-dependent work is redone. A
different cut replaces the pair, so the nodes kept from a root never exceed
one tree's worth (at most ``2 ** (max_depth + 1) - 1``), however many trees
grow from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .. import inputs

LEAF_EPS = 1e-12  # keeps a regression leaf finite when its weights sum to 0
SSE_MIN_GAIN = 1e-12  # a regression split must decrease the squared error by more
DTREE_DEPTH_GRID = (3, 4, 5)
DTREE_MIN_SPLIT_GRID = (2, 3, 4, 5, 7, 10)


@dataclass
class TreeNode:
    n_samples: int
    column: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: tuple[int, int] | None = None  # classification: (class0, class1) of the node's rows
    value: float | None = None             # leaf prediction
    # A split's unweighted impurity decrease, kept in memory for pruning and
    # not saved: ``to_doc`` writes counts for leaves only, and no gain.
    gain: float | None = field(default=None, compare=False, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.column is None

    def to_doc(self) -> dict:
        if self.is_leaf:
            doc = {"n": self.n_samples, "value": self.value}
            if self.counts is not None:
                doc["counts"] = list(self.counts)
            return doc
        return {"n": self.n_samples, "column": self.column, "threshold": self.threshold,
                "left": self.left.to_doc(), "right": self.right.to_doc()}

    @staticmethod
    def doc_check(width: int) -> tuple:
        """The check of what ``to_doc`` writes in a model of ``width`` columns:
        a split (a node with a column, which must be below ``width``; ``below``
        runs only to report one that is not) or a leaf."""
        node = (lambda doc: split(doc) and (doc["column"] < width or below(doc))
                if type(doc) is dict and "column" in doc else leaf(doc)), "a tree node"
        leaf = inputs.Table({"n": inputs.COUNT, "value": inputs.NUMBER}, {
            "counts": inputs.Each(inputs.COUNT, "a list of integers of at least 0")})
        split = inputs.Table({"n": inputs.COUNT, "column": inputs.COUNT,
                              "threshold": inputs.NUMBER, "left": node, "right": node})
        below = inputs.Table({"column": (lambda c: c < width, f"less than n_columns ({width})")})
        return node

    @classmethod
    def from_doc(cls, doc: dict) -> "TreeNode":
        if "column" not in doc:
            counts = tuple(doc["counts"]) if "counts" in doc else None
            return cls(n_samples=doc["n"], counts=counts, value=doc["value"])
        return cls(n_samples=doc["n"], column=doc["column"], threshold=doc["threshold"],
                   left=cls.from_doc(doc["left"]), right=cls.from_doc(doc["right"]))


def normalized_gains(gains: np.ndarray) -> np.ndarray:
    """Per-column importance gains scaled to sum to one (a copy; all zeros
    stay zeros)."""
    total = gains.sum()
    return gains / total if total > 0 else gains.copy()


def gini_from_counts(neg: int, pos: int) -> float:
    n = neg + pos
    if n == 0:
        return 0.0
    return 1.0 - (pos * pos + neg * neg) / (n * n)


class NodeRows:
    """The training rows of one tree node: ``rows`` in row order and
    ``order``, shape (columns, rows), per column in ascending value order with
    ties in row order. ``columns`` is the training matrix transposed, one
    contiguous row per column, shared by every node of a root.

    What depends on the matrix alone is made once: the cut layout the first
    time the node is searched, and the two children of a split. The node
    keeps the children of its last split only, so a later tree that cuts
    this node at the same place reuses them, a different cut replaces them,
    and the nodes reachable from a root never exceed one tree's worth.
    """

    __slots__ = ("columns", "offsets", "rows", "order", "cuts", "n_left", "n_right", "cut",
                 "children")

    def __init__(self, columns, offsets, rows, order):
        self.columns, self.offsets, self.rows, self.order = columns, offsets, rows, order
        self.cuts = self.n_left = self.n_right = self.cut = self.children = None

    @classmethod
    def root(cls, X: np.ndarray) -> "NodeRows":
        """All rows of ``X``, each column argsorted once by a stable sort."""
        columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
        d, n = columns.shape
        return cls(columns, np.arange(d)[:, None] * n, np.arange(n),
                   np.argsort(columns, axis=1, kind="stable"))

    def _layout(self) -> None:
        """``cuts``: the cuts between distinct neighbouring values as flat
        indices into ``order``, so in column then position order (cut
        ``(c, k)`` sends sorted positions ``0..k`` of column ``c`` left),
        and the row counts left and right of each."""
        d, m = self.order.shape
        xs = self.columns.ravel().take(self.order + self.offsets)
        differs = np.zeros((d, m), dtype=bool)
        np.not_equal(xs[:, :-1], xs[:, 1:], out=differs[:, :-1])
        self.cuts = differs.ravel().nonzero()[0]
        self.n_left = self.cuts % m + 1.0
        self.n_right = m - self.n_left

    def best_split(self, gains_of, min_gain: float, totals: tuple):
        """(cut, column, threshold, gain) of the first maximum of
        ``gains_of(self, *totals)``, the gains at ``self.cuts``, so the lowest
        column and then the lowest threshold win ties; None when the node has
        no cut or no gain exceeds ``min_gain``. ``totals`` are the node's
        target statistics, as its ``new_leaf`` (see ``_grow``) gathered them."""
        if self.cuts is None:
            self._layout()
        if self.cuts.size == 0:
            return None
        gains = gains_of(self, *totals)
        i = int(gains.argmax())
        gain = float(gains[i])
        if gain <= min_gain:
            return None
        col, k = divmod(int(self.cuts[i]), self.order.shape[1])
        low, high = self.columns[col].take(self.order[col, k:k + 2])
        return i, col, float((low + high) / 2.0), gain

    def split(self, cut: int, column: int, threshold: float):
        """(left, right) children of ``cut``, which sends the rows whose
        ``column`` value is at most ``threshold`` left: the remembered pair
        when the last split was at the same cut, otherwise partitioned now
        and remembered. A boolean filter of a sorted list stays sorted, so
        each child sees the order a stable argsort of its own rows gives."""
        if cut != self.cut:
            goes_left = self.columns[column] <= threshold
            rows_left = goes_left.take(self.rows)
            order_left = goes_left.take(self.order).ravel()
            d = len(self.order)
            rows, order = self.rows, self.order
            self.children = (
                NodeRows(self.columns, self.offsets, rows.compress(rows_left),
                         order.compress(order_left).reshape(d, -1)),
                NodeRows(self.columns, self.offsets, rows.compress(~rows_left),
                         order.compress(~order_left).reshape(d, -1)))
            self.cut = cut
        return self.children


def _gini_gains(node: NodeRows, pos_total: int, y: np.ndarray) -> np.ndarray:
    """Gini decrease at each cut of ``node``, which holds ``pos_total``
    positive rows. Counts are integers, so the gains match an integer-count
    recomputation exactly."""
    m = len(node.rows)
    parent = gini_from_counts(m - pos_total, pos_total)
    n_l, n_r = node.n_left, node.n_right
    pos_l = np.cumsum(y.take(node.order), axis=1).take(node.cuts)
    neg_l = n_l - pos_l
    pos_r = pos_total - pos_l
    neg_r = n_r - pos_r
    gini_l = 1.0 - (pos_l * pos_l + neg_l * neg_l) / (n_l * n_l)
    gini_r = 1.0 - (pos_r * pos_r + neg_r * neg_r) / (n_r * n_r)
    return parent - (n_l * gini_l + n_r * gini_r) / m


def _all_equal(values: np.ndarray) -> bool:
    """True when every entry equals the first: a regression node with such
    targets is a leaf (see the module docstring)."""
    return not (values != values[:1]).any()


def _paired(t: np.ndarray) -> np.ndarray:
    """``t`` as the real parts and ``t * t`` as the imaginary parts, whose
    one cumulative sum gives both prefix sums of ``_sse_gains``."""
    tc = np.empty(len(t), dtype=np.complex128)
    tc.real, tc.imag = t, t * t
    return tc


def _sse_totals(t: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.floating]:
    """A node's targets in row order, ``t[rows]``, and their sum."""
    node_t = t.take(rows)
    return node_t, node_t.sum()


def _sse_gains(node: NodeRows, node_t: np.ndarray, total, tc: np.ndarray) -> np.ndarray:
    """Squared-error decrease at each cut of ``node``, whose targets and
    their sum are ``_sse_totals(t, node.rows)``; ``tc`` is ``_paired(t)``."""
    m = len(node.rows)
    # Node totals are float sums in row order, as over a slice t[rows]; a
    # complex sum would pair its partial sums differently.
    total = float(total)
    total_sq = float((node_t * node_t).sum())
    parent = total_sq - total * total / m
    prefix = np.add.accumulate(tc.take(node.order), axis=1).take(node.cuts)
    sum_l, sq_l = prefix.real, prefix.imag
    n_l, n_r = node.n_left, node.n_right
    sse_l = sq_l - sum_l * sum_l / n_l
    sum_r = total - sum_l
    sse_r = (total_sq - sq_l) - sum_r * sum_r / n_r
    return parent - (sse_l + sse_r)


def best_gini_split(X: np.ndarray, y: np.ndarray):
    """Exhaustive best (column, threshold, gain) by Gini decrease over all
    rows of ``X``; None if no split gains. The gain formula matches an
    integer-count recomputation exactly, so independent brute force agrees
    bit for bit."""
    y = np.asarray(y, dtype=np.int64)
    found = NodeRows.root(X).best_split(partial(_gini_gains, y=y), 0.0, (int(y.sum()),))
    return None if found is None else found[1:]


def best_sse_split(X: np.ndarray, t: np.ndarray):
    """Best (column, threshold, gain) by squared-error decrease on targets
    ``t`` over all rows of ``X``, as in ``best_gini_split``."""
    t = np.asarray(t, dtype=np.float64)
    if _all_equal(t):
        return None
    root = NodeRows.root(X)
    found = root.best_split(partial(_sse_gains, tc=_paired(t)), SSE_MIN_GAIN,
                            _sse_totals(t, root.rows))
    return None if found is None else found[1:]


@dataclass
class TreeModel:
    root: TreeNode
    max_depth: int
    min_samples_split: int
    n_columns: int
    n_training_rows: int
    _gains: np.ndarray = field(default=None, repr=False)

    GRID = tuple({"max_depth": depth, "min_samples_split": ms} for depth in DTREE_DEPTH_GRID
                 for ms in sorted(DTREE_MIN_SPLIT_GRID, reverse=True))

    @classmethod
    def fit_grid(cls, X, y, X_val):
        """(params, model, validation probabilities) for each ``GRID`` point,
        by pruning: one tree is grown at the largest depth and the smallest
        min split, from a fresh root, and every point is a cut of it
        (``pruned``), which is exactly the tree ``train_dtree`` would grow
        there. The validation rows are routed through it once
        (``pruned_proba``), so the grid predicts with no pruned tree, and a
        point's model is the ``partial`` that prunes it, so only the winning
        point is cut."""
        full = train_dtree(X, y, max(DTREE_DEPTH_GRID), min(DTREE_MIN_SPLIT_GRID))
        proba = full.pruned_proba(X_val)
        for params in cls.GRID:
            yield params, partial(full.pruned, **params), proba(**params)

    @staticmethod
    def doc_check(width: int) -> inputs.Table:
        """The check of what ``to_doc`` writes for a model of ``width`` columns."""
        return inputs.Table({
            "max_depth": inputs.COUNT, "min_samples_split": inputs.COUNT,
            "n_columns": inputs.column_count(width), "n_training_rows": inputs.COUNT,
            "gains": inputs.per_column(width), "root": TreeNode.doc_check(width)})

    def importances(self) -> np.ndarray:
        return normalized_gains(self._gains)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.n_columns:
            raise ValueError(f"expected {self.n_columns} columns, got {X.shape[1]}")
        return tree_predict(self.root, X)

    def to_doc(self) -> dict:
        return {"max_depth": self.max_depth, "min_samples_split": self.min_samples_split,
                "n_columns": self.n_columns, "n_training_rows": self.n_training_rows,
                "gains": self._gains.tolist(), "root": self.root.to_doc()}

    @classmethod
    def from_doc(cls, doc: dict) -> "TreeModel":
        return cls(root=TreeNode.from_doc(doc["root"]), max_depth=doc["max_depth"],
                   min_samples_split=doc["min_samples_split"], n_columns=doc["n_columns"],
                   n_training_rows=doc["n_training_rows"],
                   _gains=np.asarray(doc["gains"], dtype=np.float64))

    def pruned(self, max_depth: int, min_samples_split: int) -> "TreeModel":
        """The tree ``train_dtree`` grows on the same rows at ``(max_depth,
        min_samples_split)``, cut from this one without a split search.

        Those two settings only decide whether a node is searched, never
        which split it gets, so for ``max_depth`` up to this tree's and
        ``min_samples_split`` from this tree's up, a node stays split iff
        this tree split it, its depth is below ``max_depth`` and it has at
        least ``min_samples_split`` rows. A cut node becomes the leaf
        ``train_dtree`` makes of its rows, and the gains are summed again in
        the grower's order, so the model is the same bit for bit. Needs the
        split gains of a tree grown in this process (a loaded one has none).
        """
        self._check_prunable(max_depth, min_samples_split)
        n = self.n_training_rows
        gains = np.zeros(self.n_columns)
        top = TreeNode(n_samples=n)  # holds the pruned root as its left child
        stack = [(self.root, 0, top, "left")]
        while stack:
            node, depth, parent, side = stack.pop()
            if node.is_leaf or depth >= max_depth or node.n_samples < min_samples_split:
                copy = TreeNode(n_samples=node.n_samples, counts=node.counts,
                                value=node.counts[1] / node.n_samples)
            else:
                gains[node.column] += (node.n_samples / n) * node.gain
                copy = TreeNode(n_samples=node.n_samples, column=node.column,
                                threshold=node.threshold, counts=node.counts, gain=node.gain)
                stack.append((node.right, depth + 1, copy, "right"))
                stack.append((node.left, depth + 1, copy, "left"))
            setattr(parent, side, copy)
        return TreeModel(root=top.left, max_depth=max_depth, min_samples_split=min_samples_split,
                         n_columns=self.n_columns, n_training_rows=n, _gains=gains)

    def pruned_proba(self, X: np.ndarray):
        """The function ``(max_depth, min_samples_split) -> self.pruned(
        max_depth, min_samples_split).predict_proba(X)``, bit for bit, from
        one routing of ``X`` through this tree.

        Each row's ``route`` is recorded by depth: the row count of every
        node this tree split (0 at a leaf, which every setting leaves
        unsplit), and ``counts[1] / n_samples``, the value of the leaf
        ``pruned`` makes of the node. A setting's probability for a row is the
        value at the first node on its path that the setting leaves unsplit.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.n_columns:
            raise ValueError(f"expected {self.n_columns} columns, got {X.shape[1]}")
        self._check_prunable(self.max_depth, self.min_samples_split)
        shape = (len(X), self.max_depth + 1)
        split_n = np.zeros(shape, dtype=np.int64)
        values = np.zeros(shape)
        for node, depth, idx in route(self.root, X):
            split_n[idx, depth] = 0 if node.is_leaf else node.n_samples
            values[idx, depth] = node.counts[1] / node.n_samples
        depths, rows = np.arange(shape[1]), np.arange(shape[0])

        def proba(max_depth: int, min_samples_split: int) -> np.ndarray:
            self._check_prunable(max_depth, min_samples_split)  # min_samples_split >= 2 > 0
            unsplit = (depths >= max_depth) | (split_n < min_samples_split)
            return values[rows, unsplit.argmax(axis=1)]

        return proba

    def _check_prunable(self, max_depth: int, min_samples_split: int) -> None:
        _check_dtree_params(max_depth, min_samples_split)
        if max_depth > self.max_depth or min_samples_split < self.min_samples_split:
            raise ValueError(f"cannot prune a tree grown at max_depth={self.max_depth}, "
                             f"min_samples_split={self.min_samples_split} to max_depth="
                             f"{max_depth}, min_samples_split={min_samples_split}")
        if not self.root.is_leaf and self.root.gain is None:
            raise ValueError("only a tree grown in this process can be pruned: "
                             "saved trees carry no split gains")


def _check_dtree_params(max_depth: int, min_samples_split: int) -> None:
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be >= 2")


def _grow(root: NodeRows, max_depth: int, min_samples_split: int, new_leaf, gains_of,
          min_gain: float, fitted: np.ndarray | None = None):
    """Grow a tree depth first, left child before right, from an explicit stack
    (a recursive closure would reference itself, and the cycle would keep the
    training arrays alive until a full garbage collection).

    ``new_leaf(rows)`` returns the node as a leaf and, when it may split,
    the target statistics it gathered (None when it may not); a node that
    may is searched with ``NodeRows.best_split(gains_of, min_gain,
    totals)``, which reuses them, and split with ``NodeRows.split``. A node
    that splits keeps its counts and records its gain. Returns (root,
    per-column gain vector), each split adding its gain weighted by its
    share of the rows. When given, ``fitted[rows]`` is set to the value of
    the leaf that holds those training rows.
    """
    d, n = root.columns.shape
    gains = np.zeros(d)
    top = TreeNode(n_samples=n)  # holds the root as its left child
    stack = [(root, 0, top, "left")]
    while stack:
        node_rows, depth, parent, side = stack.pop()
        rows = node_rows.rows
        node, totals = new_leaf(rows)
        setattr(parent, side, node)
        found = None
        if totals is not None and depth < max_depth and len(rows) >= min_samples_split:
            found = node_rows.best_split(gains_of, min_gain, totals)
        if found is None:
            if fitted is not None:
                fitted[rows] = node.value
            continue
        cut, col, thr, gain = found
        gains[col] += (len(rows) / n) * gain
        node.column, node.threshold, node.gain, node.value = col, thr, gain, None
        left, right = node_rows.split(cut, col, thr)
        stack.append((right, depth + 1, node, "right"))
        stack.append((left, depth + 1, node, "left"))
    return top.left, gains


def train_dtree(X, y, max_depth: int, min_samples_split: int) -> TreeModel:
    """Grow a CART classifier. Stops on depth, node size, purity or zero gain."""
    _check_dtree_params(max_depth, min_samples_split)
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape

    def new_leaf(rows):
        pos = int(y.take(rows).sum())
        neg = len(rows) - pos
        node = TreeNode(n_samples=len(rows), counts=(neg, pos), value=pos / len(rows))
        return node, (pos,) if pos > 0 and neg > 0 else None

    root, gains = _grow(NodeRows.root(X), max_depth, min_samples_split, new_leaf,
                        partial(_gini_gains, y=y), 0.0)
    return TreeModel(root=root, max_depth=max_depth, min_samples_split=min_samples_split,
                     n_columns=d, n_training_rows=n, _gains=gains)


def train_regression_tree(X, targets, weights, max_depth: int = 6,
                          node_rows: NodeRows | None = None,
                          fitted: np.ndarray | None = None):
    """Fit a regression tree on ``targets`` with leaf values
    sum(targets) / (sum(weights) + LEAF_EPS) per leaf (the second-order step
    used by boosting); a node of two or more rows may split unless its
    targets are all equal. ``node_rows`` is ``NodeRows.root(X)``, made here
    when not given; trees grown one after another from the same root reuse
    its sorted layouts and remembered splits. When given, ``fitted`` (length ``len(X)``) receives
    each training row's leaf value, as ``tree_predict(root, X)`` would give
    it. Returns (root, per-column gain vector)."""
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if node_rows is None:
        node_rows = NodeRows.root(X)

    def new_leaf(rows):
        node_t, total = totals = _sse_totals(t, rows)
        value = float(total / (w.take(rows).sum() + LEAF_EPS))
        return (TreeNode(n_samples=len(rows), value=value),
                None if _all_equal(node_t) else totals)

    return _grow(node_rows, max_depth, 2, new_leaf, partial(_sse_gains, tc=_paired(t)),
                 SSE_MIN_GAIN, fitted)


def route(root: TreeNode, X: np.ndarray):
    """Yield ``(node, depth, rows)`` for every node that rows of ``X`` reach,
    ``rows`` being the indices of those rows (``x[column] <= threshold`` goes
    left). A node is yielded before its children."""
    stack = [(root, 0, np.arange(len(X)))]
    while stack:
        node, depth, idx = stack.pop()
        yield node, depth, idx
        if not node.is_leaf and idx.size:
            left = X[idx, node.column] <= node.threshold
            stack.append((node.left, depth + 1, idx[left]))
            stack.append((node.right, depth + 1, idx[~left]))


def tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Leaf values for the rows of ``X``, each row taken down its ``route``."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(X), dtype=np.float64)
    for node, _, idx in route(root, X):
        if node.is_leaf:
            out[idx] = node.value
    return out


def export_tree(model: TreeModel, names) -> str:
    """Deterministic indented-text rendering of the tree, one line per node
    and children below their split. ``names`` labels the columns, as
    ``EncoderState.column_names`` does for an encoded table."""
    lines = []

    def walk(node: TreeNode, indent: int):
        pad = "  " * indent
        if node.is_leaf:
            lines.append(f"{pad}leaf: p={node.value:.6f} counts={list(node.counts)} "
                         f"samples={node.n_samples}")
        else:
            lines.append(f"{pad}{names[node.column]} <= {node.threshold:.6g} "
                         f"(samples={node.n_samples})")
            walk(node.left, indent + 1)
            walk(node.right, indent + 1)

    walk(model.root, 0)
    return "\n".join(lines) + "\n"
