"""The root package's namespace."""

import types

import zetalab


def test_submodule_names_resolve_to_modules():
    """zetalab.zeta, .xi and .liouville are the submodules, not the
    functions of the same name inside them."""
    for name in ("zeta", "xi", "liouville"):
        module = getattr(zetalab, name)
        assert isinstance(module, types.ModuleType), name
        assert module.__name__ == f"zetalab.{name}"
        assert callable(getattr(module, name))
