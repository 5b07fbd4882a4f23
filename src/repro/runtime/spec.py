"""Declarative experiment specifications and the global registry.

An :class:`ExperimentSpec` describes everything the runtime needs to
schedule one paper artifact: the produce-fn that computes it, the
parameter space it sweeps over, the keys its result must contain, and
an optional renderer that pretty-prints a freshly produced result.

Modules in :mod:`repro.experiments` build a spec at import time and
:func:`register` it; the registry preserves registration order, which
defines the canonical experiment ordering for ``mbs-repro all``.
"""
from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence


@dataclass(frozen=True)
class ExperimentSpec:
    """One schedulable experiment.

    ``produce`` must be a module-level callable returning a dict (so it
    pickles by reference into pool workers).  ``render`` takes the live
    result of ``produce`` and prints the figure/table to stdout.
    """

    name: str
    title: str
    produce: Callable[..., dict]
    render: Callable[[dict], None] | None = None
    #: overrides applied on top of ``produce``'s signature defaults
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: cheaper parameters for CI / smoke runs (``--quick``)
    quick: Mapping[str, Any] = field(default_factory=dict)
    #: default sweep axes for ``mbs-repro sweep``: name -> value tuple
    sweep: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    #: keys the produced result must contain (artifact schema)
    artifact: tuple[str, ...] = ()
    #: per-task wall-clock budget; None inherits the engine default
    timeout_s: float | None = None
    #: bumping this invalidates cached results without a code change
    version: str = "1"

    @property
    def module(self) -> str:
        return self.produce.__module__

    def resolve_params(
        self,
        overrides: Mapping[str, Any] | None = None,
        quick: bool = False,
    ) -> dict[str, Any]:
        """Fully explicit parameter dict for one task.

        Signature defaults < spec defaults < quick overrides < caller
        overrides.  Making every parameter explicit keeps cache keys
        canonical: the same effective call always hashes identically.

        A caller override must have its signature default's type
        (``bool`` is not an ``int``; an ``int`` may stand for a
        ``float``; a ``None`` default accepts anything), else
        ``TypeError`` — before the produce-fn ever sees the value.
        """
        params: dict[str, Any] = {}
        for p in inspect.signature(self.produce).parameters.values():
            if p.default is not inspect.Parameter.empty:
                params[p.name] = p.default
        signature_defaults = dict(params)
        params.update(self.defaults)
        if quick:
            params.update(self.quick)
        unknown = [k for k in (overrides or {}) if k not in params]
        if unknown:
            raise KeyError(
                f"{self.name}: unknown parameter(s) {unknown}; "
                f"accepted: {sorted(params)}"
            )
        for name, value in (overrides or {}).items():
            default = signature_defaults.get(name)
            if default is not None and not _same_type(value, default):
                raise TypeError(
                    f"{self.name}: parameter {name!r} expects "
                    f"{type(default).__name__} (default {default!r}), "
                    f"got {type(value).__name__} {value!r}"
                )
        params.update(overrides or {})
        return params

    def missing_artifact_keys(self, result: Mapping[str, Any]) -> list[str]:
        return [k for k in self.artifact if k not in result]


def _same_type(value: Any, default: Any) -> bool:
    if isinstance(default, float) and type(value) is int:
        return True
    return type(value) is type(default)


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the global registry (idempotent per module)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.module != spec.module:
        raise ValueError(
            f"experiment {spec.name!r} already registered by "
            f"{existing.module}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: "
            f"{' '.join(_REGISTRY) or '(none)'}"
        ) from None


def all_specs() -> tuple[ExperimentSpec, ...]:
    return tuple(_REGISTRY.values())


def spec_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def expand_grid(axes: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """Cartesian product of sweep axes, in deterministic order.

    Axis order follows the mapping's insertion order; within an axis,
    values keep their given order — so the grid enumeration is stable
    across runs and worker counts.
    """
    if not axes:
        return [{}]
    names = list(axes)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(tuple(axes[n]) for n in names))
    ]
