"""The package namespace: ``from dlgeom import *`` binds what ``__all__`` lists."""

import dlgeom


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from dlgeom import *", namespace)  # noqa: S102
    assert [name for name in dlgeom.__all__ if name not in namespace] == []
    assert len(set(dlgeom.__all__)) == len(dlgeom.__all__)
