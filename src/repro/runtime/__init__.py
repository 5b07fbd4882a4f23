"""Experiment orchestration runtime.

The runtime turns the per-figure driver modules into declarative,
schedulable units:

- :mod:`repro.runtime.spec` — :class:`ExperimentSpec` (name, parameter
  space, produce-fn, artifact schema) plus the global registry the
  modules in :mod:`repro.experiments` register into.
- :mod:`repro.runtime.serialize` — canonical JSON conversion for
  artifacts and manifests.
- :mod:`repro.runtime.deps` — static import-closure analyzer behind the
  dependency-scoped cache fingerprints.
- :mod:`repro.runtime.cache` — content-addressed result cache keyed on
  spec name + parameters + the spec's dependency-closure fingerprint.
- :mod:`repro.runtime.pool` — process-pool sweep engine with
  deterministic result ordering and per-task timeouts.

The ``mbs-repro`` CLI (:mod:`repro.experiments.runner`) is a thin shell
over these pieces; a sweep is distributed by static ``--shard I/N``
partitions whose manifest dumps ``merge --check`` unions and verifies.
"""
from repro.runtime.cache import (
    ResultCache,
    code_fingerprint,
    default_cache_dir,
    manifest_bytes,
    module_fingerprint,
    reset_fingerprint_caches,
    spec_fingerprint,
    task_key,
)
from repro.runtime.deps import ImportGraph
from repro.runtime.pool import Task, TaskResult, WorkerPool, run_tasks
from repro.runtime.serialize import canonical_dumps, jsonify
from repro.runtime.spec import (
    ExperimentSpec,
    all_specs,
    expand_grid,
    get_spec,
    register,
    spec_names,
)

__all__ = [
    "ExperimentSpec",
    "ImportGraph",
    "ResultCache",
    "Task",
    "TaskResult",
    "WorkerPool",
    "all_specs",
    "canonical_dumps",
    "code_fingerprint",
    "default_cache_dir",
    "expand_grid",
    "get_spec",
    "jsonify",
    "manifest_bytes",
    "module_fingerprint",
    "register",
    "reset_fingerprint_caches",
    "run_tasks",
    "spec_fingerprint",
    "spec_names",
    "task_key",
]
