"""Flat ``key = value`` scenario files with ``#`` comments.

Values stay strings until :meth:`Scenario.read` converts them.  A demo
declares its keys in one table, ``name -> (kind, default, *rules)``:
``kind`` is a key of :data:`KINDS`, a ``None`` default makes the key
required, and a rule is a ``(test, phrase)`` pair.  Every bad or unknown
key is reported at once.  The solvers hold their parameters and arrays
to the same tables (:func:`refuse_broken`), in the same words.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ScenarioError, undecodable_line

FINITE = (math.isfinite, "be finite")
POSITIVE = (lambda v: v > 0, "be positive")
NONNEGATIVE = (lambda v: v >= 0, "be nonnegative")
POSITIVE_FINITE = (lambda v: 0.0 < v < math.inf, "be positive and finite")
UNIT_INTERVAL = (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
# an output prefix names a file inside the output directory: no path out of it, no NUL byte
FILE_NAME = (lambda p: "\0" not in p and Path(p).name == p and p not in (".", ".."), "be a file name")
# kind -> (conversion of the text, the name a parse failure reports)
KINDS = {"float": (float, "float"), "int": (int, "int"), "str": (str, "string"),
         "int_list": (lambda text: tuple(int(p) for p in text.replace(",", " ").split()), "int list")}


def _worst(values):
    """The first non-finite entry, else the least entry or 1.0 if that is less: it
    breaks a rule of finiteness or lower bound exactly when some entry does."""
    bad = values[~np.isfinite(values)]
    return bad[0] if len(bad) else values.min(initial=1.0)


def broken_rules(table, values):
    """``"<key> must <phrase>"`` for the first rule each value breaks, in table order;
    an array by its worst entry, so its rules bound it only from below and by finiteness."""
    problems = []
    for key, (_, _, *rules) in table.items():
        if key not in values:
            continue
        value = _worst(values[key]) if isinstance(values[key], np.ndarray) else values[key]
        broken = [phrase for test, phrase in rules if not test(value)]
        problems += [f"{key} must {phrase}" for phrase in broken[:1]]
    return problems


def refuse_broken(table, values, *extra):
    """Raise ScenarioError naming every rule of ``table`` that ``values`` break, then
    each problem of ``extra`` (a rule over several values) that is not false."""
    problems = broken_rules(table, values) + [p for p in extra if p]
    if problems:
        raise ScenarioError("; ".join(problems))


class Scenario:
    def __init__(self, values, source="<memory>"):
        self.values = dict(values)
        self.source = source
        self._errors = []

    @classmethod
    def load(cls, path):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            line = undecodable_line(err)
            raise ScenarioError(f"{path}:{line}: not UTF-8 text ({err.reason} at byte {err.start})")
        values = {}
        # numbered by \n alone, as an editor or grep -n numbers them
        for i, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(f"{path}:{i}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ScenarioError(f"{path}:{i}: empty key")
            if key in values:
                raise ScenarioError(f"{path}:{i}: duplicate key {key!r}")
            values[key] = value.strip()
        return cls(values, source=str(path))

    def _get(self, key, kind, default):
        if key not in self.values:
            if default is None:
                self._errors.append(f"missing key {key!r}")
            return default
        convert, name = KINDS[kind]
        try:
            return convert(self.values[key])
        except ValueError:
            self._errors.append(f"key {key!r}: cannot parse {self.values[key]!r} as {name}")
            return default

    def read(self, table):
        """Every key of ``table`` converted as its kind, held to the key's rules."""
        values = {key: self._get(key, kind, default) for key, (kind, default, *_) in table.items()}
        # a value that fails to parse reads as its default, which keeps the rules
        self._errors += broken_rules(table, {k: v for k, v in values.items() if v is not None})
        return values

    def require(self, holds, problem):
        """Record ``problem`` unless ``holds``: a rule over several keys."""
        if not holds:
            self._errors.append(problem)

    def check(self, known=None):
        """Raise with all accumulated validation problems.

        Given the ``known`` keys, any other key in the file is a problem too.
        """
        errors = list(self._errors)
        if known is not None:
            errors += [f"unknown key {key!r}" for key in self.unknown_keys(known)]
        if errors:
            raise ScenarioError(f"{self.source}: " + "; ".join(errors))

    def unknown_keys(self, known):
        return sorted(set(self.values) - set(known))
