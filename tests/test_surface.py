"""Each module's ``__all__``, with the public methods, hand-written dunders and
dataclass fields of its public classes, is its public surface; a change to it
edits these pins.  Every public name serves a CLI path or an experiment, so
each has a caller in the library itself."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import tritrunc
from tritrunc.experiments import ExperimentConfig

PUBLIC = {
    "cli": ("main", "build_parser"),
    "experiments": (
        "DEFAULT_SEED",
        "EXPERIMENT_IDS",
        "ExperimentConfig",
        "SeriesRecord",
        "CheckResult",
        "ExperimentResult",
        "run_experiment",
        "write_records_csv",
        "fits_json",
        "experiment_description",
    ),
    "fitting": ("ScalingFit", "fit_powerlaw"),
    "hankel": ("BesovReport", "hankel_matrix", "besov_quasinorm"),
    "kernels": ("standard_bump", "standard_window", "dirichlet_plus", "fejer", "bump_poly", "apply_window"),
    "matrices": (
        "singular_values",
        "schatten_quasinorm",
        "delta_matrix",
        "mask_spectrum",
    ),
    "multipliers": (
        "WitnessReport",
        "witness_ratio",
        "delta_lower_bound",
        "hankel_multiplier_upper",
        "random_witness_search",
    ),
    "rng": ("SplitMix64", "derive_seed"),
    "trigpoly": ("TrigPoly", "lp_quasinorm", "quadrature_floor", "riesz_plus"),
}


# public class -> its public methods and properties
METHODS = {
    "experiments.ExperimentConfig": ("exponents", "grid"),
    "experiments.SeriesRecord": (),
    "experiments.CheckResult": (),
    "experiments.ExperimentResult": ("verdict",),
    "fitting.ScalingFit": ("passed",),
    "hankel.BesovReport": (),
    "multipliers.WitnessReport": ("ratio",),
    "rng.SplitMix64": ("uniform", "complex_normal", "complex_normal_rows", "integers"),
    "trigpoly.TrigPoly": ("hi", "coefficients_on"),
}

# public class -> its hand-written dunders, in definition order; a dataclass's generated ones are not listed
DUNDERS = {
    "experiments.ExperimentConfig": ("__post_init__",),
    "rng.SplitMix64": ("__init__",),
    "trigpoly.TrigPoly": ("__post_init__", "__repr__"),
}

# public dataclass -> its fields, in declaration order
FIELDS = {
    "experiments.ExperimentConfig": ("experiment", "p", "kmin", "kmax", "samples", "seed"),
    "experiments.SeriesRecord": ("experiment", "p", "k", "n", "sample", "quantity", "value", "wall_ms"),
    "experiments.CheckResult": ("name", "ok", "detail"),
    "experiments.ExperimentResult": ("config", "records", "fits", "checks"),
    "fitting.ScalingFit": ("slope", "intercept", "max_residual", "target", "tolerance", "one_sided"),
    "hankel.BesovReport": ("levels", "zero_term", "total"),
    "multipliers.WitnessReport": ("numerator", "denominator"),
    "trigpoly.TrigPoly": ("lo", "coeffs"),
}

# public names with no caller in the library, each with the reason it stays
NO_LIBRARY_CALLER = {
    "rng.SplitMix64.integers": "the benchmark's tracer test counts the words it draws",
}

# backticked identifiers in the README module table that name no library object
README_NON_NAMES = {"tritrunc"}  # the command, in the cli row


def _public_classes():
    """(module, name, class) for every class in a pinned __all__."""
    for module, surface in PUBLIC.items():
        for name in surface:
            obj = getattr(importlib.import_module(f"tritrunc.{module}"), name)
            if inspect.isclass(obj):
                yield module, name, obj


def _public_methods(cls):
    return tuple(attr for attr, val in vars(cls).items() if not attr.startswith("_")
                 and (inspect.isfunction(val) or isinstance(val, (property, staticmethod, classmethod))))


def _references():
    """name -> the (module, enclosing definitions) of every Name or attribute that reads it in the library."""
    refs = {}

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ()

        def _define(self, node):
            self.scope += (node.name,)
            self.generic_visit(node)
            self.scope = self.scope[:-1]

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

        def visit_Name(self, node):
            refs.setdefault(node.id, []).append((self.module, self.scope))

        def visit_Attribute(self, node):
            refs.setdefault(node.attr, []).append((self.module, self.scope))
            self.generic_visit(node)

    for path in Path(tritrunc.__file__).parent.glob("*.py"):
        Visitor(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return refs


def test_every_module_exports_exactly_its_pinned_surface():
    # __main__ is the "python -m tritrunc" entry point and exports nothing
    modules = {m.name for m in pkgutil.iter_modules(tritrunc.__path__)} - {"__main__"}
    assert modules == set(PUBLIC)
    for name, surface in PUBLIC.items():
        module = importlib.import_module(f"tritrunc.{name}")
        assert tuple(module.__all__) == surface, name
        assert all(hasattr(module, attr) for attr in surface), name


def test_every_public_class_has_exactly_its_pinned_methods():
    classes = {f"{module}.{name}": cls for module, name, cls in _public_classes()}
    assert set(classes) == set(METHODS)
    for name, cls in classes.items():
        assert _public_methods(cls) == METHODS[name], name


def test_every_public_class_has_exactly_its_pinned_hand_written_dunders():
    # hand-written means its code lives in the module's own file, which excludes the dunders dataclasses generate
    for module, name, cls in _public_classes():
        source = sys.modules[cls.__module__].__file__
        written = tuple(attr for attr, val in vars(cls).items() if attr.startswith("__") and attr.endswith("__")
                        and inspect.isfunction(val) and val.__code__.co_filename == source)
        assert written == DUNDERS.get(f"{module}.{name}", ()), name


def test_every_public_dataclass_has_exactly_its_pinned_fields():
    classes = {f"{module}.{name}": cls for module, name, cls in _public_classes() if dataclasses.is_dataclass(cls)}
    assert set(classes) == set(FIELDS)
    for name, cls in classes.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[name], name


def test_every_public_name_has_a_library_caller():
    # a reference counts unless it sits inside the name's own definition; dunders are not public names
    refs = _references()
    owned = [(module, (name,)) for module, surface in PUBLIC.items() for name in surface]
    owned += [(module, (name, attr)) for module, name, cls in _public_classes() for attr in _public_methods(cls)]
    uncalled = {".".join((module,) + own) for module, own in owned
                if all(where == module and scope[:len(own)] == own for where, scope in refs.get(own[-1], []))}
    assert uncalled == set(NO_LIBRARY_CALLER)


def test_readme_module_table_names_only_public_names():
    # each backticked identifier in a module's row is in its __all__ or a public method of its public classes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `tritrunc\.(\w+)` \| (.*) \|$", section, flags=re.M))
    assert set(rows) == set(PUBLIC)
    methods = {module: set() for module in PUBLIC}
    for module, _, cls in _public_classes():
        methods[module].update(_public_methods(cls))
    for module, contents in rows.items():
        named = {tok for tok in re.findall(r"`([^`]+)`", contents) if tok.isidentifier()} - README_NON_NAMES
        assert named <= set(PUBLIC[module]) | methods[module], module


def test_readme_config_paragraph_names_exactly_the_config_fields():
    # the README's run plan paragraph names each field of ExperimentConfig and no other, and one flag
    # --NAME for each field but experiment, which the positional ID gives
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("The run plan is the six fields of", 1)[1].split("A field left out", 1)[0]
    quoted = re.findall(r"`([^`]+)`", paragraph)
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert {tok for tok in quoted if tok.isidentifier()} == fields
    assert {tok[2:] for tok in quoted if tok.startswith("--")} == fields - {"experiment"}
