"""The test run's own configuration, and what the runtime needs."""

import ast
import dataclasses
import hashlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from synth import experiment
from test_invariance import PARAMS, SAME, SCALE, kinds

import morphoprof
from morphoprof import ExperimentSpec, ImagePlane, core, save_image, save_mask
from morphoprof.cli import main
from morphoprof.engine import REGISTRY

pytest_plugins = ["pytester"]

#: The directory that holds the morphoprof package, for a fresh interpreter.
SRC = str(Path(morphoprof.__file__).parents[1])

#: Runs the CLI with every ``scipy`` import failing, as where it is not installed.
WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
sys.path.insert(0, sys.argv[1])
from morphoprof.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_a_failing_property_reports_its_falsifying_example(pytestconfig, pytester):
    # With the run's warning filters, a failing @given test used to end the
    # whole run in an INTERNALERROR raised while hypothesis built its report.
    filters = pytestconfig.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    result.assert_outcomes(failed=1, passed=1)


def test_import_loads_no_scipy():
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import morphoprof; "
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_extract_without_scipy_writes_the_same_bytes(tmp_path):
    """A reduced criterion-1 run of all six families, once in this process
    and once in an interpreter where scipy cannot be imported."""
    spec = experiment(n_objects=100, size=256, seed=42)
    ((_, mask),) = spec.object_sets
    save_mask(mask, tmp_path / "mask.u32")
    args = ["extract", "--mask", str(tmp_path / "mask.u32"), "--mask-names", "cells",
            "--channel-names", ",".join(name for name, _ in spec.channels)]
    for name, plane in spec.channels:
        save_image(ImagePlane(plane.pixels.astype(np.float32)), tmp_path / f"{name}.f32")
        args += ["--image", str(tmp_path / f"{name}.f32")]

    assert main([*args, "--out", str(tmp_path / "here.csv")]) == 0
    subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, SRC, *args,
                    "--out", str(tmp_path / "blocked.csv")],
                   capture_output=True, text=True, check=True, timeout=300)
    here, blocked = (hashlib.sha256((tmp_path / f"{stem}_cells.csv").read_bytes()).hexdigest()
                     for stem in ("here", "blocked"))
    assert blocked == here


def test_each_family_module_has_one_entry_point():
    # One public function measures a family; feature_keys, where a module
    # has one, lists its keys.  Helpers stay private, so no public name
    # lives only for the tests.
    for family in REGISTRY:
        module = family.module
        public = {name for name, value in inspect.getmembers(module, inspect.isfunction)
                  if value.__module__ == module.__name__ and not name.startswith("_")}
        assert public - {"feature_keys"} == {f"measure_{family.name}"}, family.name


def test_each_family_is_named_by_its_module_and_params_field():
    # The engine finds a family's entry point and params by its name alone:
    # measure_<name> in morphoprof.<name>, and ExperimentSpec.<name>_params
    # where the module defines a *Params class, defaulting to one of them.
    config = ExperimentSpec()
    fields = {f.name for f in dataclasses.fields(config)}
    for family in REGISTRY:
        module = family.module
        assert module is sys.modules[f"morphoprof.{family.name}"], family.name
        classes = [value for name, value in inspect.getmembers(module, inspect.isclass)
                   if value.__module__ == module.__name__ and name.endswith("Params")]
        field = f"{family.name}_params"
        assert (field in fields) == bool(classes), family.name
        if classes:
            (params_class,) = classes
            assert isinstance(getattr(config, field), params_class), family.name
            assert family.params(config) is getattr(config, field)
        else:
            assert family.params(config) is None
    assert {f for f in fields if f.endswith("_params")} == {
        f"{family.name}_params" for family in REGISTRY if family.params(config) is not None}


def test_only_the_core_helper_takes_a_median():
    # One order-statistics rule: every median in the package is taken by
    # core._median_and_mad, at the scale it bounds, so no second rule that
    # overflows at the top of the float range can creep back.
    median = re.compile(r"\bnp\.(?:nan)?median\b")
    found = sum(len(median.findall(path.read_text(encoding="utf-8")))
                for path in Path(SRC, "morphoprof").glob("*.py"))
    assert found == len(median.findall(inspect.getsource(core._median_and_mad))) > 0


def test_only_granularity_reaches_the_unchecked_reconstruction():
    # _reconstruct and _reconstruct_front check no input: measure_granularity
    # passes them ranks it builds, the marker at most the limit and no NaN,
    # with which they would never return.  No other module names them, so no
    # value from outside the granularity spectrum can reach them.
    kernel = re.compile(r"\b_reconstruct(?:_front)?\b")
    named = {(path.name, name) for path in Path(SRC, "morphoprof").glob("*.py")
             for name in kernel.findall(path.read_text(encoding="utf-8"))}
    assert named == {("granularity.py", "_reconstruct"), ("granularity.py", "_reconstruct_front")}


def test_only_core_defines_setting_checkers():
    # What a valid setting is gets decided in one module: the separate
    # fraction and r2 checks that once stood beside _check_int and
    # _check_real took bools as thresholds and raised TypeError on strings.
    checkers = {(path.name, node.name) for path in Path(SRC, "morphoprof").glob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_check_")}
    assert checkers and {module for module, _ in checkers} == {"core.py"}


def test_every_cache_in_the_package_names_a_finite_maxsize():
    # A cache keyed by a setting or a crop size grows with each new key for
    # the life of the process, as _disk_rows's once did, unless it is bounded.
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    caches = ("cache", "lru_cache")
    sizes = []
    for path in Path(SRC, "morphoprof").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # A bare @cache or @lru_cache names no size.
            sizes += [(path.name, d.lineno, None)
                      for d in getattr(node, "decorator_list", []) if name(d) in caches]
            if isinstance(node, ast.Call) and name(node.func) in caches:
                given = [*node.args, *(k.value for k in node.keywords if k.arg == "maxsize")]
                finite = name(node.func) == "lru_cache" and given and isinstance(given[0], ast.Constant)
                sizes.append((path.name, node.lineno, given[0].value if finite else None))
    assert sizes and [entry for entry in sizes if not isinstance(entry[2], int)] == []


def test_every_memory_probe_runs_through_one_helper():
    # Each peak-memory test names a probe of peakrss.py and runs it through
    # peakrss.probe_peaks, so one script holds every probe's baseline and
    # reading.  simdprobe.py compares digests, not memory.
    tests = Path(__file__).parent
    assert sorted(path.name for path in tests.glob("*probe.py")) == ["simdprobe.py"]
    mentions = {path.name: re.findall(r".*\bpeakrss\b.*", path.read_text(encoding="utf-8"))
                for path in tests.glob("*.py") if path.name not in ("peakrss.py", Path(__file__).name)}
    assert {name: lines for name, lines in mentions.items()
            if lines not in ([], ["from peakrss import probe_peaks"])} == {}


def test_readme_names_each_feature_a_power_of_two_restores():
    # README's power-of-two paragraph names each feature the invariance
    # suite's SCALE table marks as restored or as missing past the range,
    # and no other feature.
    readme = Path(__file__).parents[1] / "README.md"
    (paragraph,) = [p for p in readme.read_text(encoding="utf-8").split("\n\n")
                    if p.startswith("One power-of-two rule")]
    features = {key for family in REGISTRY for params in PARAMS[family.name]
                for key, *_ in family.keys(params)}
    restored = {key for name in SCALE for key, kind in kinds(SCALE, name, PARAMS[name][0]).items()
                if kind != SAME}
    named = set(re.findall(r"`([A-Za-z_]\w*)`", paragraph)) & features
    assert sorted(named) == sorted(restored)
