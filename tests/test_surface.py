"""Each module's ``__all__`` is its public surface; a change to it edits this pin."""

import importlib
import pkgutil

import tritrunc

PUBLIC = {
    "cli": ("main", "build_parser"),
    "experiments": (
        "DEFAULT_SEED",
        "EXPERIMENT_IDS",
        "ExperimentConfig",
        "SeriesRecord",
        "CheckResult",
        "FitRecord",
        "ExperimentResult",
        "config_from_dict",
        "run_experiment",
        "write_records_csv",
        "fits_json",
        "experiment_description",
    ),
    "fitting": ("ScalingFit", "fit_powerlaw"),
    "hankel": ("BesovReport", "hankel_matrix", "besov_quasinorm", "band_hankel_check"),
    "kernels": ("standard_bump", "standard_window", "dirichlet_plus", "fejer", "bump_poly", "apply_window"),
    "matrices": (
        "schur_product",
        "singular_values",
        "schatten_quasinorm",
        "chi_matrix",
        "delta_matrix",
        "mask_spectrum",
        "triangular_projection",
    ),
    "multipliers": (
        "WitnessReport",
        "witness_ratio",
        "delta_lower_bound",
        "hankel_multiplier_upper",
        "random_witness_search",
        "fejer_riesz_ratio",
        "dirichlet_witness_upper",
    ),
    "rng": ("SplitMix64", "derive_seed"),
    "trigpoly": ("TrigPoly", "lp_quasinorm", "quadrature_floor", "riesz_plus"),
}


def test_every_module_exports_exactly_its_pinned_surface():
    # __main__ is the "python -m tritrunc" entry point and exports nothing
    modules = {m.name for m in pkgutil.iter_modules(tritrunc.__path__)} - {"__main__"}
    assert modules == set(PUBLIC)
    for name, surface in PUBLIC.items():
        module = importlib.import_module(f"tritrunc.{name}")
        assert tuple(module.__all__) == surface, name
        assert all(hasattr(module, attr) for attr in surface), name
