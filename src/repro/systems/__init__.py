"""System records, the catalog resolver and cluster assembly (DESIGN.md §2)."""

from .cluster import Cluster
from .presets import SystemConfig, all_system_names, by_name

__all__ = [
    "Cluster",
    "SystemConfig",
    "all_system_names",
    "by_name",
]
