import arrayshadow


def test_every_exported_name_resolves():
    assert len(set(arrayshadow.__all__)) == len(arrayshadow.__all__)
    assert [n for n in arrayshadow.__all__ if not hasattr(arrayshadow, n)] == []
    namespace = {}
    exec("from arrayshadow import *", namespace)
    assert set(arrayshadow.__all__) <= set(namespace)
