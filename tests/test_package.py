"""The root package's namespace."""

import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import types

import pytest

import zetalab
from zetalab import cli, integrals, liouville


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
    "scan_polya", "scan_turan", "exact_block_sums", "_decreasing_block_sums", "round_exact_sums",
)


def test_no_public_function_takes_a_segment_size_or_threads():
    """The sieve has one segment length and one thread, and the scan one
    save cadence: no public function offers any of them as a parameter. (The ScanCheckpoint record
    keeps its segment_size field: the checkpoint format stores it.)
    Nor does any module keep a name that only repeated another path:
    each of RETIRED_NAMES has a replacement in CHANGES.md."""
    for name in dir(zetalab):
        obj = getattr(zetalab, name)
        if inspect.isfunction(obj):
            params = set(inspect.signature(obj).parameters)
            assert not {"segment_size", "threads", "checkpoint_every"} & params, name
    modules = [zetalab] + [
        importlib.import_module(f"zetalab.{m.name}")
        for m in pkgutil.iter_modules(zetalab.__path__)
        if m.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        for name in RETIRED_NAMES:
            assert not hasattr(module, name), (module.__name__, name)


def test_segments_lie_on_the_sub_block_grid():
    """The Abel core walks each segment in sub-blocks of _SUB_BLOCK from
    its start. Only a segment length that is a multiple of _SUB_BLOCK
    keeps every sub-block on the grid 1 + k _SUB_BLOCK, on which no float
    depends on the segment length. A scan folds the same blocks: its
    _BLOCK is _SUB_BLOCK, so that _abel_spread's one sub-block is one
    block of liouville._p_bounds."""
    assert liouville.DEFAULT_SEGMENT % integrals._SUB_BLOCK == 0
    assert liouville.DEFAULT_SEGMENT % liouville._BLOCK == 0
    assert liouville._BLOCK == integrals._SUB_BLOCK


def test_the_exact_sums_unit_has_one_home():
    """2^-1074, the unit of the exact sums, is compensated.UNITS, and
    compensated.to_units the one converter of a float into it: no other
    module spells either, as RETIRED_NAMES keeps a retired name out."""
    src = pathlib.Path(zetalab.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if path.name == "compensated.py":
            assert text.count("as_integer_ratio") == 1
        else:
            assert "1074" not in text, path.name
            assert "as_integer_ratio" not in text, path.name


@pytest.mark.parametrize("workload", ["verify_1e6", "sigma_c_f_one", "scan_1e8"])
def test_a_smoke_scan_passes_the_benchmark_checks(workload, tmp_path, capsys):
    """The benchmark reads each workload's outputs from its stdout and
    files (perfbench/workloads.py); its smoke-size run in-process must
    pass every check of perfbench/reference.json, within the
    benchmark's float tolerance, so a change to a format or a value
    past that tolerance fails here first."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    code = cli.main(workloads.command(workload, True, str(tmp_path)))
    got = workloads.extract(workload, str(tmp_path), capsys.readouterr().out)
    got["exit_code"] = code
    reference = workloads.load_reference(workload, True)
    assert reference
    assert workloads.compare(reference, got) == []


def test_names_the_benchmark_traces_still_resolve():
    """perfbench/spans.py wraps the functions in its FUNCTIONS and the
    methods in its METHODS by name; each must still be found in zetalab,
    or a traced benchmark run fails before it starts."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, names in spans.FUNCTIONS.items():
        module = importlib.import_module(f"zetalab.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), (mod_name, name)
    for mod_name, pairs in spans.METHODS.items():
        module = importlib.import_module(f"zetalab.{mod_name}")
        for cls_name, meth in pairs:
            assert meth in vars(getattr(module, cls_name)), (mod_name, cls_name, meth)
