"""Default size bounds for the enumeration-heavy operations."""
from __future__ import annotations

from .record import Record


class Bounds(Record):
    _fields = ("max_subset_module", "max_hom_candidates", "max_box", "max_product",
               "max_free_rank")

    def __init__(self,
                 max_subset_module: int = 16,      # carrier bound for subsemimodule enumeration
                 max_hom_candidates: int = 65536,  # |N| ** #generators cap in hom enumeration
                 max_box: int = 4096,              # tensor presentation box carrier
                 max_product: int = 4096,          # product / limit carriers
                 max_free_rank: int = 2):          # free modules searched for presentations
        d = self.__dict__
        d["max_subset_module"] = max_subset_module
        d["max_hom_candidates"] = max_hom_candidates
        d["max_box"] = max_box
        d["max_product"] = max_product
        d["max_free_rank"] = max_free_rank


DEFAULT_BOUNDS = Bounds()
