"""The package's public names."""

import wsnsim


def test_every_name_in_all_imports():
    namespace = {}
    exec("from wsnsim import *", namespace)  # AttributeError on a name that is gone
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(wsnsim.__all__)
