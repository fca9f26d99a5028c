import importlib

import pytest

import gmacsec

# every name the package exports
EXPORTS = [
    "BOUNDS", "ChannelSpec", "Codebook", "DegradednessCertificate",
    "DimensionMismatch", "EmptySlice", "EnumerationTooLarge", "FrontierSample",
    "GmacError", "GridTooLarge", "InternalError", "NegativeProbability",
    "NotDegradedWarning", "RatePolytope", "RateRegion", "RowSumViolation",
    "SchemeDegraded", "SchemeOneSet", "SchemeOneSetOuter", "SchemeTwoSet",
    "SearchConfig", "SimReport", "SolverStall", "Unbounded", "UnknownVariable",
    "VertexEnumerationOverflow", "assemble_region", "bound_pieces",
    "build_codebook", "check_physically_degraded",
    "check_stochastically_degraded", "compose_degraded_channel", "convexify",
    "equivocation_joint", "equivocation_set_explicit", "exact_equivocation",
    "exact_error_probability", "frontier", "frontier_sweep",
    "full_cardinalities", "load_channel", "marginal_kernel", "max_states",
    "maximize_secrecy_capacity", "piece_is_empty", "piece_vertices", "polytope",
    "refine_local", "region_contains", "region_support", "save_channel",
    "scheme_from_dict", "scheme_to_dict", "secrecy_capacity_value", "simulate",
    "validate_channel",
]

LAYERS = ("channel", "errors", "infotheory", "one_set", "optimizer", "regions",
          "two_set", "wiretap_sim")


class TestExportTable:
    def test_all_lists_the_exports(self):
        assert len(EXPORTS) == 56
        assert gmacsec.__all__ == EXPORTS

    def test_each_export_is_its_submodules_object(self):
        for name in EXPORTS:
            module = importlib.import_module(f"gmacsec.{gmacsec._EXPORTS[name]}")
            assert getattr(gmacsec, name) is getattr(module, name), name
        assert gmacsec.bound_pieces is gmacsec.regions.bound_pieces

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from gmacsec import *", namespace)
        assert {name for name in namespace if name != "__builtins__"} == set(EXPORTS)
        assert namespace["simulate"] is gmacsec.wiretap_sim.simulate

    def test_dir_lists_exports_and_layers(self):
        listed = dir(gmacsec)
        assert set(EXPORTS) <= set(listed)
        assert set(LAYERS) <= set(listed)
        assert listed == sorted(listed)

    def test_layers_and_other_submodules_import(self):
        from gmacsec import fixtures

        assert fixtures.binary_degraded().size_y == 2
        for layer in LAYERS:
            assert getattr(gmacsec, layer) is importlib.import_module(f"gmacsec.{layer}")

    def test_unknown_name_names_the_module(self):
        with pytest.raises(AttributeError, match="module 'gmacsec' has no attribute "
                                                 "'no_such_name'"):
            gmacsec.no_such_name
        with pytest.raises(ImportError):
            from gmacsec import no_such_name  # noqa: F401
