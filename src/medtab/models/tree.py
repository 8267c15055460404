"""Greedy binary decision trees: a Gini-impurity classifier and a
squared-error regression tree (the boosting base learner).

Split search is exact: candidate thresholds are midpoints between consecutive
distinct sorted values per column, the chosen split maximizes the weighted
impurity decrease, and ties break toward the lower column index then the
lower threshold. Training is deterministic.

Both trees share one engine. Each column of the training matrix is argsorted
once (``presort``, a stable sort, so tied rows stay in row order). A node
carries its rows per column in that order, and splitting a node keeps the
order in both children, because a boolean filter of a sorted list is sorted.
So every node sees exactly what a stable per-node argsort would give, and its
cumulative sums, gains and thresholds are the same bit for bit. A node's split
search is one 2-D scan: gather the node's values and statistics in sorted
order, take cumulative sums along each column, score the cuts between
distinct neighbouring values and take the first maximum in (column,
position) order, which is the tie rule above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LEAF_EPS = 1e-12  # keeps a regression leaf finite when its weights sum to 0


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


def presort(X: np.ndarray) -> np.ndarray:
    """Row indices of ``X`` per column in ascending value order, ties in row
    order: shape (columns, rows)."""
    return np.argsort(X, axis=0, kind="stable").T.copy()


def _cuts(X: np.ndarray, sorted_rows: np.ndarray):
    """The node's values in sorted order, shape (columns, rows), and its cuts
    between distinct neighbouring values as flat indices into the (columns,
    rows - 1) grid, so in column then position order. Cut ``(c, k)`` sends
    sorted positions ``0..k`` of column ``c`` left."""
    d = X.shape[1]
    xs = X.ravel().take(sorted_rows * d + np.arange(d)[:, None])
    return xs, np.flatnonzero(xs[:, :-1] != xs[:, 1:])


def _first_best(xs, cuts, gains, min_gain: float):
    """(column, threshold, gain) of the first maximum of ``gains``, so the
    lowest column and then the lowest threshold win ties; None when it does
    not exceed ``min_gain``."""
    i = int(np.argmax(gains))
    gain = float(gains[i])
    if gain <= min_gain:
        return None
    col, k = divmod(int(cuts[i]), xs.shape[1] - 1)
    return col, float((xs[col, k] + xs[col, k + 1]) / 2.0), gain


def best_gini_split(X: np.ndarray, y: np.ndarray, sorted_rows: np.ndarray | None = None):
    """Exhaustive best (column, threshold) by Gini decrease; None if no split gains.

    Returns (column, threshold, gain) for the node whose rows ``sorted_rows``
    lists per column in ascending value order (``presort``); all rows of
    ``X`` when omitted. The gain formula matches an integer-count
    recomputation exactly, so independent brute force agrees bit for bit.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if sorted_rows is None:
        sorted_rows = presort(X)
    xs, cuts = _cuts(X, sorted_rows)
    if cuts.size == 0:
        return None
    n = sorted_rows.shape[1]
    ys = y.take(sorted_rows[:, :-1])
    pos_total = int(y.take(sorted_rows[0]).sum())
    neg_total = n - pos_total
    parent = gini_from_counts(neg_total, pos_total)
    n_l = cuts % (n - 1) + 1
    pos_l = np.cumsum(ys, axis=1).take(cuts)
    neg_l = n_l - pos_l
    n_r = n - n_l
    pos_r = pos_total - pos_l
    neg_r = n_r - pos_r
    gini_l = 1.0 - (pos_l * pos_l + neg_l * neg_l) / (n_l * n_l)
    gini_r = 1.0 - (pos_r * pos_r + neg_r * neg_r) / (n_r * n_r)
    gains = parent - (n_l * gini_l + n_r * gini_r) / n
    return _first_best(xs, cuts, gains, 0.0)


def best_sse_split(X: np.ndarray, t: np.ndarray, sorted_rows: np.ndarray | None = None):
    """Best (column, threshold, gain) by squared-error decrease on targets
    ``t``, over the node given as in ``best_gini_split``."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if sorted_rows is None:
        sorted_rows = presort(X)
    xs, cuts = _cuts(X, sorted_rows)
    if cuts.size == 0:
        return None
    n = sorted_rows.shape[1]
    # Node totals are summed in row order, as over a slice t[rows].
    node_t = t.take(np.sort(sorted_rows[0]))
    total = float(node_t.sum())
    total_sq = float((node_t * node_t).sum())
    parent = total_sq - total * total / n
    ts = t.take(sorted_rows[:, :-1])
    sum_l = np.cumsum(ts, axis=1).take(cuts)
    sq_l = np.cumsum(ts * ts, axis=1).take(cuts)
    n_l = cuts % (n - 1) + 1
    sse_l = sq_l - sum_l * sum_l / n_l
    n_r = n - n_l
    sum_r = total - sum_l
    sse_r = (total_sq - sq_l) - sum_r * sum_r / n_r
    gains = parent - (sse_l + sse_r)
    return _first_best(xs, cuts, gains, 1e-12)


@dataclass
class TreeModel:
    root: TreeNode
    max_depth: int
    min_samples_split: int
    n_columns: int
    n_training_rows: int
    _gains: np.ndarray = field(default=None, repr=False)

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
        _check_dtree_params(max_depth, min_samples_split)
        if max_depth > self.max_depth or min_samples_split < self.min_samples_split:
            raise ValueError(f"cannot prune a tree grown at max_depth={self.max_depth}, "
                             f"min_samples_split={self.min_samples_split} to max_depth="
                             f"{max_depth}, min_samples_split={min_samples_split}")
        if not self.root.is_leaf and self.root.gain is None:
            raise ValueError("only a tree grown in this process can be pruned: "
                             "saved trees carry no split gains")
        n = self.n_training_rows
        gains = np.zeros(self.n_columns)
        root = None
        stack = [(self.root, 0, None, "")]
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
            if parent is None:
                root = copy
            else:
                setattr(parent, side, copy)
        return TreeModel(root=root, max_depth=max_depth, min_samples_split=min_samples_split,
                         n_columns=self.n_columns, n_training_rows=n, _gains=gains)


def _check_dtree_params(max_depth: int, min_samples_split: int) -> None:
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be >= 2")


def _grow(X, sorted_rows, max_depth: int, min_samples_split: int, new_leaf, best_split,
          fitted: np.ndarray | None = None):
    """Grow a tree depth first, left child before right, from an explicit stack
    (a recursive closure would reference itself, and the cycle would keep the
    training arrays alive until a full garbage collection).

    ``new_leaf(rows)`` returns the node as a leaf and whether it may
    split; ``best_split(sorted_rows)`` returns (column, threshold, gain) or
    None. A node that splits keeps its counts and records its gain. Returns
    (root, per-column gain vector), each split adding its gain weighted by
    its share of the rows. When given, ``fitted[rows]`` is set to the value
    of the leaf that holds those training rows.
    """
    n, d = X.shape
    gains = np.zeros(d)
    root = None
    stack = [(np.arange(n), sorted_rows, 0, None, "")]
    while stack:
        rows, node_rows, depth, parent, side = stack.pop()
        node, splittable = new_leaf(rows)
        if parent is None:
            root = node
        else:
            setattr(parent, side, node)
        found = None
        if splittable and depth < max_depth and len(rows) >= min_samples_split:
            found = best_split(node_rows)
        if found is None:
            if fitted is not None:
                fitted[rows] = node.value
            continue
        col, thr, gain = found
        gains[col] += (len(rows) / n) * gain
        node.column, node.threshold, node.gain, node.value = col, thr, gain, None
        goes_left = X[:, col] <= thr
        left, left_sorted = goes_left.take(rows), goes_left.take(node_rows).ravel()
        stack.append((rows.compress(~left), node_rows.compress(~left_sorted).reshape(d, -1),
                      depth + 1, node, "right"))
        stack.append((rows.compress(left), node_rows.compress(left_sorted).reshape(d, -1),
                      depth + 1, node, "left"))
    return root, gains


def train_dtree(X, y, max_depth: int, min_samples_split: int) -> TreeModel:
    """Grow a CART classifier. Stops on depth, node size, purity or zero gain."""
    _check_dtree_params(max_depth, min_samples_split)
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape

    def new_leaf(rows):
        pos = int(y[rows].sum())
        neg = len(rows) - pos
        node = TreeNode(n_samples=len(rows), counts=(neg, pos), value=pos / len(rows))
        return node, pos > 0 and neg > 0

    root, gains = _grow(X, presort(X), max_depth, min_samples_split, new_leaf,
                        lambda node_rows: best_gini_split(X, y, node_rows))
    return TreeModel(root=root, max_depth=max_depth, min_samples_split=min_samples_split,
                     n_columns=d, n_training_rows=n, _gains=gains)


def train_regression_tree(X, targets, weights, max_depth: int = 6,
                          sorted_rows: np.ndarray | None = None,
                          fitted: np.ndarray | None = None):
    """Fit a regression tree on ``targets`` with leaf values
    sum(targets) / (sum(weights) + LEAF_EPS) per leaf (the second-order step
    used by boosting); any node of two or more rows may split. ``sorted_rows`` is ``presort(X)``, computed here when not
    given. When given, ``fitted`` (length ``len(X)``) receives each training
    row's leaf value, as ``tree_predict(root, X)`` would give it. Returns
    (root, per-column gain vector)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if sorted_rows is None:
        sorted_rows = presort(X)

    def new_leaf(rows):
        value = float(t[rows].sum() / (w[rows].sum() + LEAF_EPS))
        return TreeNode(n_samples=len(rows), value=value), True

    return _grow(X, sorted_rows, max_depth, 2, new_leaf,
                 lambda node_rows: best_sse_split(X, t, node_rows), fitted)


def tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Leaf values for the rows of ``X``, routing arrays of row indices down
    the tree (``x[column] <= threshold`` goes left)."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(X), dtype=np.float64)
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.value
        elif idx.size:
            left = X[idx, node.column] <= node.threshold
            stack.append((node.left, idx[left]))
            stack.append((node.right, idx[~left]))
    return out


def export_tree(model: TreeModel, names, format: str = "text") -> str:
    """Deterministic rendering of the tree: ``text`` indented lines or a
    graphviz ``dot`` digraph. ``names`` labels the columns, as
    ``EncoderState.column_names`` does for an encoded table."""
    if format == "text":
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
    if format == "dot":
        lines = ["digraph tree {", "  node [shape=box];"]
        counter = [0]

        def walk(node: TreeNode) -> int:
            nid = counter[0]
            counter[0] += 1
            if node.is_leaf:
                label = f"p={node.value:.4f}\\ncounts={list(node.counts)}\\nsamples={node.n_samples}"
            else:
                label = (f"{names[node.column]} <= {node.threshold:.6g}"
                         f"\\nsamples={node.n_samples}")
            lines.append(f'  n{nid} [label="{label}"];')
            if not node.is_leaf:
                left_id = walk(node.left)
                right_id = walk(node.right)
                lines.append(f"  n{nid} -> n{left_id};")
                lines.append(f"  n{nid} -> n{right_id};")
            return nid

        walk(model.root)
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {format!r}")
