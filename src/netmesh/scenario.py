"""Flat ``key = value`` scenario files with ``#`` comments.

Values stay strings until a typed getter pulls them out.  A demo declares
its keys in one table, ``name -> (kind, default, *rules)``: ``kind`` names
the getter, a ``None`` default makes the key required, and a rule is a
``(test, phrase)`` pair.  Every bad or unknown key is reported at once.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ScenarioError

FINITE = (math.isfinite, "be finite")
POSITIVE = (lambda v: v > 0, "be positive")
NONNEGATIVE = (lambda v: v >= 0, "be nonnegative")
POSITIVE_FINITE = (lambda v: 0.0 < v < math.inf, "be positive and finite")
UNIT_INTERVAL = (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
# an output prefix names a file inside the output directory: no path out of it, no NUL byte
FILE_NAME = (lambda p: "\0" not in p and Path(p).name == p and p not in (".", ".."), "be a file name")


def broken_rules(table, values):
    """``"<key> must <phrase>"`` for the first rule each value breaks, in table order."""
    problems = []
    for key, (_, _, *rules) in table.items():
        broken = [phrase for test, phrase in rules if key in values and not test(values[key])]
        problems += [f"{key} must {phrase}" for phrase in broken[:1]]
    return problems


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
            line = err.object[: err.start].count(b"\n") + 1
            raise ScenarioError(f"{path}:{line}: not UTF-8 text ({err.reason} at byte {err.start})")
        values = {}
        for i, raw in enumerate(text.splitlines(), start=1):
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

    # -- typed getters; failures accumulate into self._errors -------------

    def _get(self, key, default, convert, kind):
        if key not in self.values:
            if default is None:
                self._errors.append(f"missing key {key!r}")
            return default
        try:
            return convert(self.values[key])
        except ValueError:
            self._errors.append(f"key {key!r}: cannot parse {self.values[key]!r} as {kind}")
            return default

    def get_float(self, key, default=None):
        return self._get(key, default, float, "float")

    def get_int(self, key, default=None):
        return self._get(key, default, int, "int")

    def get_str(self, key, default=None):
        return self._get(key, default, str, "string")

    def get_int_list(self, key, default=()):
        def convert(text):
            return tuple(int(p) for p in text.replace(",", " ").split())

        return self._get(key, tuple(default), convert, "int list")

    def read(self, table):
        """Every key of ``table`` by its getter, held to the key's rules."""
        values = {key: getattr(self, f"get_{kind}")(key, default)
                  for key, (kind, default, *_) in table.items()}
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
