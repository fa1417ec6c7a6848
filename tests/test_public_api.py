import bfmfusion


def test_all_names_resolve_once():
    assert len(set(bfmfusion.__all__)) == len(bfmfusion.__all__)
    missing = [name for name in bfmfusion.__all__ if not hasattr(bfmfusion, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from bfmfusion import *", namespace)
    assert set(bfmfusion.__all__) <= set(namespace)
