"""Default size bounds for the enumeration-heavy operations."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Bounds:
    max_subset_module: int = 16      # carrier bound for subsemimodule enumeration
    max_hom_candidates: int = 65536  # |N| ** #generators cap in hom enumeration
    max_box: int = 4096              # tensor presentation box carrier
    max_product: int = 4096          # product / limit carriers
    max_free_rank: int = 2           # free modules searched for presentations


DEFAULT_BOUNDS = Bounds()
