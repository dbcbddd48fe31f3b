import tracemalloc

import pytest

from hyperdense import Hypergraph, complete_hypergraph, parse_hypergraph

C5_MINUS_TEXT = "3 5 4\n0 1 2\n1 2 3\n2 3 4\n3 4 0\n"


def peak_bytes(thunk) -> int:
    """The largest traced allocation total while thunk() runs."""
    tracemalloc.start()
    try:
        thunk()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

# tight 5-cycle 0-1-2-3-4 minus the edge {0,1,4}; under the correspondence
# v=0, w=1, x=2, y=3, z=4 the reference ordering x<w<v<z<y reads [2,1,0,4,3]
FIGURE_ORDER = (2, 1, 0, 4, 3)
FIGURE_COLOURS = {
    (0, 1): 1, (1, 3): 1, (3, 4): 1,          # green
    (0, 2): 2, (2, 3): 2, (0, 3): 2,          # blue
    (1, 2): 3, (2, 4): 3, (0, 4): 3,          # red
}


@pytest.fixture(scope="session")
def c5_minus() -> Hypergraph:
    return parse_hypergraph(C5_MINUS_TEXT)


@pytest.fixture(scope="session")
def k4() -> Hypergraph:
    return complete_hypergraph(3, 4)


@pytest.fixture(scope="session")
def single_edge() -> Hypergraph:
    return Hypergraph(3, 3, ((0, 1, 2),))


@pytest.fixture(scope="session")
def tight_path4() -> Hypergraph:
    return Hypergraph(3, 4, ((0, 1, 2), (1, 2, 3)))
