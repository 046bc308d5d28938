"""The package's public names."""

import isk4plus

REMOVED = ("greedy_extend", "relation_to_set", "neighbors", "degree",
           "COMPLETE", "ANTICOMPLETE", "MIXED", "has_k4_subgraph")


def test_all_names_resolve():
    for name in isk4plus.__all__:
        assert getattr(isk4plus, name) is not None, name
    assert len(set(isk4plus.__all__)) == len(isk4plus.__all__)


def test_removed_helpers_not_exported():
    for name in REMOVED:
        assert name not in isk4plus.__all__
        assert not hasattr(isk4plus, name)
