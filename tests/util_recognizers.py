"""Whole-graph K4-subdivision recognizers used only by the tests."""

from isk4plus.detect import _subset_subdivision
from isk4plus.graph import Graph


def is_k4_subdivision(G: Graph) -> bool:
    """Whole-graph test: is G itself a subdivision of K4 (K4 included)?"""
    if G.n < 4:
        return False
    return _subset_subdivision(G.adj, G.vertex_mask) is not None


def is_k4plus_subdivision(G: Graph) -> bool:
    """Whole-graph test for subdivisions of the once-subdivided K4.

    These are exactly the K4 subdivisions on at least 5 vertices: the
    extra vertex singles out one K4 edge as the subdivided one.
    """
    return G.n >= 5 and is_k4_subdivision(G)
