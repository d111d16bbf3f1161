"""The root package's namespace."""

import importlib
import inspect
import pkgutil
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


RETIRED_NAMES = (
    "StepFunction", "XiSequence", "DEFAULT_XI", "mvt_weight", "write_sums_csv",
    "scan_polya", "scan_turan",
)


def test_no_public_function_takes_a_segment_size_or_threads():
    """The sieve has one segment length and one thread: no public
    function offers either as a parameter. (The ScanCheckpoint record
    keeps its segment_size field: the checkpoint format stores it.)
    Nor does any module keep a name that only repeated another path:
    each of RETIRED_NAMES has a replacement in CHANGES.md."""
    for name in dir(zetalab):
        obj = getattr(zetalab, name)
        if inspect.isfunction(obj):
            assert not {"segment_size", "threads"} & set(inspect.signature(obj).parameters), name
    modules = [zetalab] + [
        importlib.import_module(f"zetalab.{m.name}")
        for m in pkgutil.iter_modules(zetalab.__path__)
        if m.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        for name in RETIRED_NAMES:
            assert not hasattr(module, name), (module.__name__, name)
