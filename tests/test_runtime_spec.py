"""ExperimentSpec parameter resolution, registry, and grid expansion."""
import inspect
import re

import pytest

import repro.experiments  # noqa: F401  (registers the real specs)
from repro.runtime import ExperimentSpec, expand_grid, get_spec, register
from repro.runtime import spec as spec_mod

REAL_SPECS = [
    s for s in spec_mod.all_specs()
    if s.module.startswith("repro.experiments.")
]
SIGNATURE_PARAMS = [
    pytest.param(s.name, p.name, p.default, id=f"{s.name}.{p.name}")
    for s in REAL_SPECS
    for p in inspect.signature(s.produce).parameters.values()
    if p.default is not inspect.Parameter.empty
]


def produce_demo(x=1, y="a", flag=True):
    return {"x": x, "y": y, "flag": flag}


def make_spec(**kw):
    defaults = dict(name="demo", title="demo spec", produce=produce_demo)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestResolveParams:
    def test_signature_defaults_become_explicit(self):
        assert make_spec().resolve_params() == {
            "x": 1, "y": "a", "flag": True
        }

    def test_layering(self):
        spec = make_spec(defaults={"x": 5}, quick={"y": "q"})
        assert spec.resolve_params() == {"x": 5, "y": "a", "flag": True}
        assert spec.resolve_params(quick=True)["y"] == "q"
        assert spec.resolve_params({"y": "z"}, quick=True)["y"] == "z"

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError, match="unknown parameter"):
            make_spec().resolve_params({"nope": 1})

    def test_mistyped_override_rejected(self):
        with pytest.raises(TypeError, match="'x' expects int"):
            make_spec().resolve_params({"x": "abc"})
        with pytest.raises(TypeError, match="'y' expects str"):
            make_spec().resolve_params({"y": 3})

    def test_bool_and_int_are_distinct(self):
        with pytest.raises(TypeError, match="'x' expects int"):
            make_spec().resolve_params({"x": True})
        with pytest.raises(TypeError, match="'flag' expects bool"):
            make_spec().resolve_params({"flag": 1})

    def test_int_accepted_for_float_default(self):
        def produce(rate=0.5):
            return {"rate": rate}

        spec = make_spec(produce=produce)
        assert spec.resolve_params({"rate": 2})["rate"] == 2
        with pytest.raises(TypeError, match="'rate' expects float"):
            spec.resolve_params({"rate": "fast"})

    def test_none_default_accepts_any_type(self):
        def produce(limit=None):
            return {"limit": limit}

        spec = make_spec(produce=produce)
        assert spec.resolve_params({"limit": "abc"})["limit"] == "abc"
        assert spec.resolve_params({"limit": 3})["limit"] == 3

    def test_resolution_never_mutates_spec(self):
        spec = make_spec(defaults={"x": 5})
        spec.resolve_params({"x": 9})
        assert spec.resolve_params()["x"] == 5


class TestRegistry:
    def test_reregister_same_module_is_idempotent(self):
        register(make_spec(name="demo_idem"))
        register(make_spec(name="demo_idem", defaults={"x": 2}))
        assert get_spec("demo_idem").defaults == {"x": 2}

    def test_conflicting_module_rejected(self):
        register(make_spec(name="demo_conflict"))
        foreign = ExperimentSpec(
            name="demo_conflict", title="imposter", produce=print
        )
        with pytest.raises(ValueError, match="already registered"):
            register(foreign)

    def test_unknown_lookup_names_candidates(self):
        with pytest.raises(KeyError, match="registered:"):
            get_spec("never_registered")

    def test_real_specs_are_registered(self):
        import repro.experiments  # noqa: F401  (triggers registration)

        names = spec_mod.spec_names()
        for expected in ("fig3", "fig10", "tab2", "headline"):
            assert expected in names

    def test_artifact_schema_check(self):
        spec = make_spec(artifact=("x", "missing"))
        assert spec.missing_artifact_keys({"x": 1}) == ["missing"]


def _mistyped(default):
    """A value whose type differs from ``default``'s."""
    return 3 if isinstance(default, str) else "abc"


class TestRegisteredSpecTypes:
    """The ``--set`` type check against every registered produce-fn."""

    def test_every_spec_is_covered(self):
        assert len(REAL_SPECS) == 15
        assert len(SIGNATURE_PARAMS) == 33

    @pytest.mark.parametrize("spec_name,param,default", SIGNATURE_PARAMS)
    def test_default_value_is_accepted(self, spec_name, param, default):
        params = get_spec(spec_name).resolve_params({param: default})
        assert params[param] == default

    @pytest.mark.parametrize("spec_name,param,default", SIGNATURE_PARAMS)
    def test_mistyped_override_names_the_parameter(
            self, spec_name, param, default):
        expected = (f"{spec_name}: parameter {param!r} expects "
                    f"{type(default).__name__}")
        with pytest.raises(TypeError, match=re.escape(expected)):
            get_spec(spec_name).resolve_params({param: _mistyped(default)})

    @pytest.mark.parametrize(
        "spec_name", [s.name for s in REAL_SPECS if s.quick])
    def test_quick_values_pass_as_overrides(self, spec_name):
        spec = get_spec(spec_name)
        assert (spec.resolve_params(dict(spec.quick))
                == spec.resolve_params(quick=True))

    @pytest.mark.parametrize(
        "spec_name", [s.name for s in REAL_SPECS if s.sweep])
    def test_declared_sweep_points_pass(self, spec_name):
        spec = get_spec(spec_name)
        grid = expand_grid(spec.sweep)
        assert len(grid) > 1
        for point in grid:
            params = spec.resolve_params(point)
            assert {k: params[k] for k in point} == point


class TestExpandGrid:
    def test_empty_axes_single_point(self):
        assert expand_grid({}) == [{}]

    def test_cartesian_product_in_order(self):
        grid = expand_grid({"a": (1, 2), "b": ("x", "y")})
        assert grid == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_order_is_deterministic_across_calls(self):
        axes = {"m": (16, 32, 64), "p": ("mbs1", "mbs2")}
        assert expand_grid(axes) == expand_grid(dict(axes))
