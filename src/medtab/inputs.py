"""Every JSON input file is read and checked here, and every text input read.

A loader describes what its file must hold, and ``load`` (one JSON document)
or ``load_lines`` (JSON lines, blank lines skipped) reads the file and checks
it. A check is one of:

- ``(test, what)``: ``test(value)`` is true for a good value, and ``what``
  says what the value must be;
- a ``Table``: an object whose keys map to checks;
- an ``Each``: a list whose items pass one check;
- ``tagged(key, checks, what)``: an object checked by the check that the
  string at ``key`` picks.

The tests see the types JSON gives: "3" is not 3, true is not 1 (its type is
bool), and null passes only a test that says so. The first failure raises the
loader's own error class in one message form::

    <file>[:<line>]: <JSON path> must be <what>, got <value>

A missing key got ``nothing``. A file that cannot be read or decoded raises
the same class, naming the file (and the line), as ``read_text`` does.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

_ABSENT = object()  # the value of a missing key


def message(where: str, path: str, what: str, got) -> str:
    """The one form of an input error; ``got`` is shown as its ``repr``, cut
    at 60 characters, or as ``nothing`` for a missing key."""
    shown = "nothing" if got is _ABSENT else repr(got)
    shown = shown if len(shown) <= 60 else shown[:57] + "..."
    return f"{where}: {path} must be {what}, got {shown}"


class _Bad(Exception):
    """A failed check; ``steps`` lead from the failing value up to the root."""

    def __init__(self, what: str, value, *steps):
        self.what, self.value, self.steps = what, value, list(steps)


def _pair(check) -> tuple:
    # a Table or Each is its own test: it returns True or raises _Bad
    return check if isinstance(check, tuple) else (check, check.what)


def _step(test, what: str, value, step) -> None:
    """Raise _Bad unless ``test(value)``; a failure inside ``test`` gets
    ``step`` added to its path."""
    try:
        good = test(value)
    except _Bad as bad:
        bad.steps.append(step)
        raise
    if not good:
        raise _Bad(what, value, step)


class Table:
    """An object with ``required`` and ``optional`` keys; on a closed table
    no other key may appear, on an open one other keys are left alone."""

    what = "a JSON object"

    def __init__(self, required: dict = {}, optional: dict = {}, closed: bool = False):
        self.fields = {key: _pair(check) for key, check in {**required, **optional}.items()}
        self._required, self._closed = frozenset(required), closed

    def __call__(self, doc) -> bool:
        if type(doc) is not dict:
            raise _Bad(self.what, doc)
        if self._closed and not doc.keys() <= self.fields.keys():
            key = next(key for key in doc if key not in self.fields)
            raise _Bad(f"absent (the keys are {', '.join(sorted(self.fields))})", doc[key], key)
        for key, (test, what) in self.fields.items():
            if key in doc:
                _step(test, what, doc[key], key)
            elif key in self._required:
                raise _Bad(what, _ABSENT, key)
        return True


class Each:
    """A list (with ``nonempty``, of at least one item) whose items pass
    ``item``."""

    def __init__(self, item, what: str, nonempty: bool = False):
        self.item, self.what, self._nonempty = _pair(item), what, nonempty

    def __call__(self, items) -> bool:
        if type(items) is not list or (self._nonempty and not items):
            raise _Bad(self.what, items)
        test, what = self.item
        for i, item in enumerate(items):
            _step(test, what, item, i)
        return True


def tagged(key: str, checks: dict, what: str) -> tuple:
    """A check of an object by the check ``checks[doc[key]]``; ``what``
    says which strings ``key`` may hold."""
    tag = Table({key: (lambda value: type(value) is str and value in checks, what)})
    tests = {value: _pair(check)[0] for value, check in checks.items()}
    return (lambda doc: tag(doc) and tests[doc[key]](doc)), Table.what


def check(doc, spec, error: type[Exception], where: str, root: str = "$"):
    """``doc`` when it passes ``spec``; else ``error`` naming ``where`` and the
    failing value's JSON path, which starts at ``root``. A document that
    nests deeper than the checks can recurse is an ``error`` too."""
    try:
        _step(*_pair(spec), doc, None)
    except _Bad as bad:  # its last step is the root's None
        path = "".join(f"[{s}]" if type(s) is int else f".{s}" for s in reversed(bad.steps[:-1]))
        raise error(message(where, root + path, bad.what, bad.value)) from None
    except RecursionError:
        raise error(f"{where}: {root} nests too deep to check") from None
    return doc


def read_text(path, error: type[Exception]) -> str:
    """The file's UTF-8 text; ``error`` naming the file when it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise error(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise error(f"{path}: {e}") from None


def _decode(text: str, error: type[Exception], where: str):
    """``json.loads(text)``; ``error`` naming ``where`` when the text is not
    JSON, nests too deep to decode or holds an integer of too many digits
    (json raises RecursionError and a plain ValueError for those two)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(f"{where}: {e}") from None


def load(path, spec, error: type[Exception]):
    """The JSON document in the file at ``path``, checked against ``spec``."""
    return check(_decode(read_text(path, error), error, str(path)), spec, error, str(path))


def load_lines(path, spec, error: type[Exception]) -> list[tuple[int, object]]:
    """``(line number, document)`` for each non-blank line of a JSON-lines
    file, each document checked against ``spec``."""
    entries, name = [], str(path)
    for n, line in enumerate(read_text(path, error).split("\n"), start=1):
        if line := line.strip():
            where = f"{name}:{n}"
            entries.append((n, check(_decode(line, error, where), spec, error, where)))
    return entries


def first_repeat(keyed) -> tuple | None:
    """``(first place, place, key)`` for the first of the ``(key, place)``
    pairs whose key came before, or None."""
    seen = {}
    for key, place in keyed:
        if seen.setdefault(key, place) != place:
            return seen[key], place, key
    return None


# Checks that several loaders share.
TEXT = (lambda value: type(value) is str, "a string")
BOOL = (lambda value: type(value) is bool, "true or false")
INT = (lambda value: type(value) is int, "an integer")
COUNT = (lambda value: type(value) is int and value >= 0, "an integer of at least 0")
POSITIVE = (lambda value: type(value) is int and value >= 1, "an integer of at least 1")
OBJECT = (lambda value: type(value) is dict, "a JSON object")
# A number that a float holds finitely (a huge int is not one); true is not a number.
NUMBER = (lambda value: type(value) is int and abs(value) <= sys.float_info.max
          or type(value) is float and math.isfinite(value), "a finite number")
NUMBERS = Each(NUMBER, "a list of finite numbers")


def per_column(width: int) -> tuple:
    """A list of finite numbers, one per column of a model ``width`` columns wide."""
    return (lambda value: NUMBERS(value) and len(value) == width,
            f"a list of finite numbers, one per encoder column ({width})")


def column_count(width: int) -> tuple:
    """A model's column count, which must be ``width``."""
    return (lambda value: type(value) is int and value == width,
            f"the encoder's column count ({width})")
