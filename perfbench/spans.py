"""Span tracing around medtab's public layer functions, installed from outside.

A wrapper replaces every binding of a traced function in the loaded
``medtab`` modules: ``gbdt`` imports ``train_regression_tree`` and
``tree_predict`` by name, ``search`` imports the trainers, ``persist`` imports
``transform``, and ``models`` re-exports most of them, so patching only the
defining module would miss those callers. Methods are patched on their class.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, op, ok)`` on
the process CPU clock, like the operations they belong to, and written out
once, at the end of the run. Only calls made while an operation is open are
recorded; calls from set-up and from the benchmark's own checks pass straight
through.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import process_time_ns


def _grid_search_name(args, kwargs):
    return "search.grid_search." + (args[0] if args else kwargs["family"])


# (module, attribute or Class.method, span name or a function of the call's arguments)
LAYERS = (
    ("medtab.prompts", "PromptBundle.render", "prompts.render"),
    ("medtab.prompts", "build_json_correction_prompt", "prompts.correction"),
    ("medtab.prompts", "build_type_correction_prompt", "prompts.correction"),
    ("medtab.llm", "ReplayProvider.complete", "llm.complete"),
    ("medtab.vorc", "parse_response", "vorc.parse_response"),
    ("medtab.vorc", "repair_json", "vorc.repair_json"),
    ("medtab.vorc", "validate_record", "vorc.validate_record"),
    ("medtab.vorc", "extract_corpus", "vorc.extract_corpus"),
    ("medtab.dataset", "load_csv", "dataset.load_csv"),
    ("medtab.dataset", "save_csv", "dataset.save_csv"),
    ("medtab.dataset", "split", "dataset.split"),
    ("medtab.dataset", "fit_encoder", "dataset.fit_encoder"),
    ("medtab.dataset", "transform", "dataset.transform"),
    ("medtab.models.search", "grid_search", _grid_search_name),
    ("medtab.models.gbdt", "train_gbdt", "gbdt.train_gbdt"),
    ("medtab.models.tree", "train_regression_tree", "tree.train_regression_tree"),
    ("medtab.models.tree", "best_sse_split", "tree.best_sse_split"),
    ("medtab.models.tree", "train_dtree", "tree.train_dtree"),
    ("medtab.models.tree", "best_gini_split", "tree.best_gini_split"),
    ("medtab.models.tree", "tree_predict", "tree.tree_predict"),
    ("medtab.models.logreg", "train_logreg", "logreg.train_logreg"),
    ("medtab.models.persist", "save_model", "persist.save_model"),
    ("medtab.models.persist", "load_model", "persist.load_model"),
    ("medtab.evalkit", "extraction_metrics", "evalkit.extraction_metrics"),
    ("medtab.evalkit", "classification_metrics", "evalkit.classification_metrics"),
    ("medtab.evalkit", "fidelity", "evalkit.fidelity"),
)

# Spans whose children are all traced layers: their self time is only glue,
# so their per-call figure is the inclusive time a batch or grid takes.
INCLUSIVE = ("vorc.extract_corpus", "search.grid_search.")


def bindings(fn) -> list:
    """Every (module, attribute) of the loaded medtab modules bound to ``fn``."""
    return [(mod, key) for mod_name, mod in list(sys.modules.items())
            if mod_name.split(".")[0] == "medtab" and mod is not None
            for key, value in list(vars(mod).items()) if value is fn]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.ops: list = []  # (op id, start_ns, end_ns, operations in the unit)
        self.op = None
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original, wrapper)

    # -- installation ------------------------------------------------------

    def _wrapper(self, name, fn):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = process_time_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = process_time_ns()
                stack.pop()
                spans[idx] = (name if isinstance(name, str) else name(args, kwargs),
                              start, end, parent, op, ok)

        return traced

    def _plan(self):
        """Every (owner, attribute, original, wrapper) binding to patch."""
        importlib.import_module("medtab.cli")  # loads every module that binds a layer
        plan = []
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                plan.append((owner, meth, original, self._wrapper(name, original)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            plan += [(owner, key, original, wrapper) for owner, key in bindings(original)]
        return plan

    def install(self):
        if not self._patches:
            self._patches = self._plan()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- operations --------------------------------------------------------

    def begin(self, op):
        self.op = op
        return process_time_ns()

    def end(self, start_ns, n_ops):
        self.ops.append((self.op, start_ns, process_time_ns(), n_ops))
        self.op = None

    # -- results -----------------------------------------------------------

    def write(self, path: Path):
        with path.open("w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op, ok) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent, op, ok]) + "\n")

    def summary(self):
        """Per span name: calls, successful calls and self/inclusive
        nanoseconds; plus the share of operation time no span covers."""
        child_ns = defaultdict(int)
        for name, start, end, parent, op, ok in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "ok": 0, "self_ns": 0, "incl_ns": 0})
        root_ns = 0
        for idx, (name, start, end, parent, op, ok) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["ok"] += ok
            s["incl_ns"] += end - start
            s["self_ns"] += end - start - child_ns[idx]
            if parent < 0:
                root_ns += end - start
        op_ns = sum(end - start for _, start, end, _ in self.ops)
        n_ops = sum(n for *_, n in self.ops)
        unaccounted = 1.0 - root_ns / op_ns if op_ns else 0.0
        return dict(stats), n_ops, unaccounted
