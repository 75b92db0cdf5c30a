"""Cornerstone-like Morton keys, domain decomposition and halos."""

from .domain import (
    DomainAssignment,
    ExchangePlan,
    assign_particles,
    decompose,
    plan_exchange,
)
from .halos import HaloPlan, RankAabb, discover_halos
from .morton import (
    MORTON_BITS,
    MORTON_CELLS,
    MORTON_KEY_MAX,
    Box,
    cell_coords,
    key_at_level,
    morton_decode,
    morton_encode,
)

__all__ = [
    "DomainAssignment",
    "ExchangePlan",
    "assign_particles",
    "decompose",
    "plan_exchange",
    "HaloPlan",
    "RankAabb",
    "discover_halos",
    "MORTON_BITS",
    "MORTON_CELLS",
    "MORTON_KEY_MAX",
    "Box",
    "cell_coords",
    "key_at_level",
    "morton_decode",
    "morton_encode",
]
