"""The benchmark's tracer can wrap every netmesh name it patches.

``bench/tracing.py`` replaces layer functions wherever a module holds
them by name, including names a module imports only for that purpose
(``roots.intersections``).  Entering a tracer fails on any name that is
gone, so a rename shows up here rather than in a benchmark run.  The
file is read and executed, never imported, so nothing is written under
``bench/``.
"""

import types
from pathlib import Path

import pytest

from netmesh import roots

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_wraps_and_restores_every_hook():
    tracer = load_tracing().Tracer()
    entries = tracer._plan_entries
    originals = [owner.__dict__[attribute] for owner, attribute, _ in entries]
    with tracer:
        for owner, attribute, replacement in entries:
            assert owner.__dict__[attribute] is replacement
    for (owner, attribute, _), original in zip(entries, originals):
        assert owner.__dict__[attribute] is original


def test_a_missing_hook_fails_to_enter(monkeypatch):
    tracer = load_tracing().Tracer()
    monkeypatch.delattr(roots, "intersections")
    with pytest.raises(KeyError):
        tracer.__enter__()
    tracer.__exit__(None, None, None)  # undo the patches applied before the failure
