"""Flat ``key = value`` scenario files with ``#`` comments.

Values stay strings until a typed getter pulls them out; validation
errors name every offending key at once so a scenario can be fixed in
one pass.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ScenarioError


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
            if default is not None or kind == "optional":
                return default
            self._errors.append(f"missing key {key!r}")
            return None
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
