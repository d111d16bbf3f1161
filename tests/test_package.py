"""The root package's namespace."""

import inspect
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


def test_no_public_function_takes_a_segment_size_or_threads():
    """The sieve has one segment length and one thread: no public
    function offers either as a parameter. (The ScanCheckpoint record
    keeps its segment_size field: the checkpoint format stores it.)"""
    for name in dir(zetalab):
        obj = getattr(zetalab, name)
        if inspect.isfunction(obj):
            assert not {"segment_size", "threads"} & set(inspect.signature(obj).parameters), name
