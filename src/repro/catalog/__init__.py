"""Declarative hardware catalog: spec files, loader, calibration.

``repro.catalog`` is the one definition of every system: each is a
versioned JSON (or, for user files, YAML) spec that the loader builds
into the ``GpuSpec``/``CpuSpec``/``SystemConfig`` dataclasses, so
campaigns, the CLI and the service sweep new hardware with zero code
changes.
``repro.catalog.fit`` closes the loop — it fits the power/perf model
parameters from a measured trace and emits a catalog spec file
(``repro calibrate``). See ``docs/catalog.md``.
"""

from .loader import (
    CATALOG_PATH_ENV,
    PATH_PREFIX,
    CatalogEntry,
    available_entries,
    build_gpu_spec,
    build_system,
    catalog_search_path,
    is_path_ref,
    known_system_names,
    load_payload,
    load_system,
    resolve_system,
    shipped_catalog_dir,
    spec_payload_from_system,
    validate_shipped_catalog,
    write_spec_file,
)
from .schema import (
    CATALOG_SCHEMA_VERSION,
    SchemaError,
    validate_system_payload,
)

__all__ = [
    "CATALOG_PATH_ENV",
    "CATALOG_SCHEMA_VERSION",
    "PATH_PREFIX",
    "CatalogEntry",
    "SchemaError",
    "available_entries",
    "build_gpu_spec",
    "build_system",
    "catalog_search_path",
    "is_path_ref",
    "known_system_names",
    "load_payload",
    "load_system",
    "resolve_system",
    "shipped_catalog_dir",
    "spec_payload_from_system",
    "validate_shipped_catalog",
    "validate_system_payload",
    "write_spec_file",
]
