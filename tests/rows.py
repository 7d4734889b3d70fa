"""Record-like rows over the grid's vertex and edge columns.

The per-row references of the tests (``append_rows``, ``refine_rows``,
``growth_rows``, ``intersection_walk``) and the audit's corruptions read
and write one vertex or edge at a time, as they did when each was a
record.  ``Row(store, slot)`` gives that access to one slot of a level's
column store: a field reads as an int, None for -1, or (a pair) as a
tuple without its -1 entries, and ``coords`` as the row itself; setting
a field writes the column, None as -1 and a short tuple padded with -1.
"""


class Row:
    """One slot of a vertex or edge column store, read and written field by field."""

    __slots__ = ("_store", "_slot")

    def __init__(self, store, slot):
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_slot", slot)

    def __getattr__(self, name):
        value = getattr(self._store, name)[self._slot]
        if name == "coords":
            return value
        value = value.tolist()
        if isinstance(value, list):
            return tuple(x for x in value if x >= 0)
        return None if value < 0 else value

    def __setattr__(self, name, value):
        if value is None:
            value = -1
        elif isinstance(value, tuple):
            value = value + (-1,) * (2 - len(value))
        getattr(self._store, name)[self._slot] = value


def rows(store):
    """A ``Row`` for every slot of one level's column store, in slot order."""
    return [Row(store, slot) for slot in range(len(store))]
