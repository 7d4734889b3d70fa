"""Random transactions that the hypothesis tests run between grid checks.

``rounds`` draws lists of (transaction, seed); a transaction draws all it
does from a numpy generator of its seed.  ``adapt``, ``grow`` and
``remove`` change the fan of ``fan_grid``, ``network_round`` a network of
segments.  ``embedded_grid`` gives the fan or a Y network in a world of
dimension 1 to 4, the rounds draw fresh vertices in the grid's world, and
``play`` runs one of either grid's transactions.
"""

import numpy as np
from hypothesis import strategies as st

from conftest import make_grid
from netmesh import LINE, TRIANGLE

# three triangles fanning around the edge (0, 1), one more on the edge (1, 2)
FAN = (
    [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, -1, 0), (0.5, 0, 1), (1.5, 1, 0)],
    [(0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 5, 2)],
)

# three segments meeting at vertex 1
Y = ([(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, -1, 0)], [(0, 1), (1, 2), (1, 3)])

# a linear map of full rank min(3, w) from R^3 to R^w for w = 1 to 4, so
# the embedded fan keeps nonzero triangles and R^4 has a fourth component
EMBED = np.array([[1.0, 0.5, 0.25], [-0.5, 1.0, 0.75], [0.25, -0.75, 1.0], [0.5, 0.25, -0.5]])


FAN_TRANSACTIONS = ["adapt", "grow", "remove"]
NETWORK_TRANSACTIONS = ["refine", "coarsen", "grow"]


def rounds(transactions, min_size=1, max_size=6):
    seeds = st.integers(0, 2**32 - 1)
    return st.lists(st.tuples(st.sampled_from(transactions), seeds), min_size=min_size, max_size=max_size)


def fan_grid():
    return make_grid(2, 3, *FAN)


def embedded_grid(shape, world_dim):
    """The fan (``"fan"``) or the Y network (``"y"``), its corners mapped into
    R^world_dim by ``EMBED``."""
    coords, elements = FAN if shape == "fan" else Y
    dim = 2 if shape == "fan" else 1
    return make_grid(dim, world_dim, (np.asarray(coords, dtype=float) @ EMBED[:world_dim].T).tolist(), elements)


def adapt(grid, rng, refine=0.4, coarsen=0.3):
    for el in grid.leaf_view().elements():
        u = rng.uniform()
        if u < refine and el.level < 3:
            grid.mark(1, el)
        elif u > 1.0 - coarsen:
            grid.mark(-1, el)
    grid.pre_adapt()
    grid.adapt()
    grid.post_adapt()


def grow(grid, rng, share=0.3):
    """Queue a triangle on a random edge of about ``share`` of the leaves, with a fresh apex."""
    view = grid.leaf_view()
    ix = view.index_set
    for el in view.elements():
        if rng.uniform() < share:
            corners = el.vertices()
            a, b = rng.choice(3, size=2, replace=False)
            apex = grid.queue_vertex(corners[a].coords + rng.normal(size=grid.world_dim))
            grid.queue_element(TRIANGLE, [ix.index_of(corners[a]), ix.index_of(corners[b]), apex])
    grid.grow()
    grid.post_grow()


def remove(grid, rng, share=0.2):
    """Remove about ``share`` of the leaves, always keeping the first."""
    for el in grid.leaf_view().elements()[1:]:
        if rng.uniform() < share:
            grid.remove_element(el)
    grid.grow()
    grid.post_grow()


def network_round(grid, transaction, seed):
    """Refine or coarsen about half the leaves, or "grow": attach segments at
    about 0.3 of them, and with probability 1/2 join two leaf vertices,
    which may be of different levels.  Two grow rounds with one seed put
    two fresh vertices at one point, so a join can make a zero-length
    segment."""
    rng = np.random.default_rng(seed)
    view = grid.leaf_view()
    if transaction == "grow":
        ix = view.index_set
        leaf_vertices = view.vertices()
        for el in view.elements():
            if rng.uniform() < 0.3:
                v = el.vertices()[int(rng.integers(2))]
                fresh = grid.queue_vertex(v.coords + rng.normal(size=grid.world_dim))
                grid.queue_element(LINE, [ix.index_of(v), fresh])
        if rng.uniform() < 0.5:
            a, b = rng.choice(len(leaf_vertices), size=2, replace=False)
            grid.queue_element(LINE, [int(a), int(b)])
        grid.grow()
        grid.post_grow()
    else:
        for el in view.elements():
            if rng.uniform() < 0.5:
                grid.mark(1 if transaction == "refine" else -1, el)
        grid.pre_adapt()
        grid.adapt()
        grid.post_adapt()


def play(grid, transaction, seed):
    """One of ``FAN_TRANSACTIONS`` on a surface, or of ``NETWORK_TRANSACTIONS`` on a network."""
    if grid.dim == 1:
        network_round(grid, transaction, seed)
    else:
        {"adapt": adapt, "grow": grow, "remove": remove}[transaction](grid, np.random.default_rng(seed))
