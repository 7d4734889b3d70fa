"""The dict-per-leaf transfer, kept as the reference for ``flow.store_leaf_data``
and ``flow.restore_leaf_data``.

Before the store held stacked arrays, it was a dict mapping each
persistent id to a dict of that element's values, and a restore walked
every element up to its nearest stored ancestor.  ``store_by_dicts`` and
``restore_by_dicts`` are those two functions unchanged.
"""

import numpy as np

from netmesh.errors import LifecycleError


def store_by_dicts(grid, view, arrays):
    store = {eid: {name: a[i] for name, a in arrays.items()} for i, eid in enumerate(view.ids(0).tolist())}
    for level, slot in view.places(0):
        if (level, slot) not in grid._vanishing:
            continue
        father = grid.element(level, slot).father()
        if father is None or father.id in store:
            continue
        kids = father.children()
        weights = np.array([k.geometry.volume() for k in kids])
        values = {}
        for name in arrays:
            vals = np.array([store[k.id][name] for k in kids])
            values[name] = float(np.sum(weights * vals) / np.sum(weights))
        store[father.id] = values
    return store


def restore_by_dicts(view, store, names):
    elems = view.grid._elems
    rows = []
    for eid, (level, slot) in zip(view.ids(0).tolist(), view.places(0)):
        key = eid
        while key not in store and elems[level][slot].father is not None:  # up to a stored ancestor
            level, slot = level - 1, elems[level][slot].father
            key = elems[level][slot].id
        if key not in store:
            raise LifecycleError(
                f"no stored data for element id {eid} or its ancestors "
                "(was store_leaf_data called after pre_adapt?)"
            )
        rows.append(store[key])
    return {name: np.array([row[name] for row in rows], dtype=float) for name in names}
