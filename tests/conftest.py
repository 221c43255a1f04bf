import hypothesis
import pytest

from gasnetsim.network import NetworkGraph, PipeSpec

hypothesis.settings.register_profile(
    "gasnetsim", deadline=None, max_examples=100, derandomize=True
)
hypothesis.settings.load_profile("gasnetsim")


@pytest.fixture
def single_pipe():
    return NetworkGraph([PipeSpec("p", "a", "b", 1020.0, 0.5)])


@pytest.fixture
def five_pipe():
    # Two junctions (degree 3), four boundary nodes; lengths are multiples of
    # 170 m so dt = 0.5 s at c = 340 m/s gives cfl = 1 without snapping.
    return NetworkGraph(
        [
            PipeSpec("p0", "n0", "n2", 1700.0, 0.6),
            PipeSpec("p1", "n1", "n2", 2040.0, 0.5),
            PipeSpec("p2", "n2", "n3", 2380.0, 0.8),
            PipeSpec("p3", "n3", "n4", 1360.0, 0.5),
            PipeSpec("p4", "n3", "n5", 1020.0, 0.4),
        ]
    )


@pytest.fixture
def star_graph():
    return NetworkGraph(
        [
            PipeSpec("s0", "leaf0", "hub", 340.0, 0.5),
            PipeSpec("s1", "leaf1", "hub", 510.0, 0.6),
            PipeSpec("s2", "hub", "leaf2", 680.0, 0.8),
        ]
    )
