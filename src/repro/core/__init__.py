"""The SHE framework: CSM model, cleaning frames and the five sketches."""

from repro.core.base import FrameKind, make_frame
from repro.core.batch import apply_columnar
from repro.core.config import SheConfig
from repro.core.csm import (
    BITMAP_SPEC,
    BLOOM_FILTER_SPEC,
    COUNT_MIN_SPEC,
    HYPERLOGLOG_SPEC,
    MINHASH_SPEC,
    CellType,
    CsmSpec,
    UpdateKind,
)
from repro.core.generic import CellReadout, GenericSheSketch
from repro.core.hardware_frame import HardwareFrame
from repro.core.registry import (
    GENERIC_KIND,
    AlgoDescriptor,
    cell_merge_for,
    descriptor_of,
    get_descriptor,
    register_algorithm,
    registered_kinds,
    require_descriptor,
    unregister_algorithm,
)
from repro.core.she_bf import SheBloomFilter
from repro.core.she_bm import SheBitmap
from repro.core.she_cm import SheCountMin
from repro.core.she_hll import SheHyperLogLog, hll_alpha
from repro.core.she_mh import SheMinHash
from repro.core.software_frame import SoftwareFrame
from repro.core.merge import merge_many, merge_sketches, mergeable
from repro.core.timebase import TimedStream

__all__ = [
    "FrameKind",
    "make_frame",
    "apply_columnar",
    "SheConfig",
    "CellType",
    "CsmSpec",
    "UpdateKind",
    "BLOOM_FILTER_SPEC",
    "BITMAP_SPEC",
    "HYPERLOGLOG_SPEC",
    "COUNT_MIN_SPEC",
    "MINHASH_SPEC",
    "CellReadout",
    "GenericSheSketch",
    "HardwareFrame",
    "SoftwareFrame",
    "SheBloomFilter",
    "SheBitmap",
    "SheCountMin",
    "SheHyperLogLog",
    "SheMinHash",
    "hll_alpha",
    "TimedStream",
    "merge_many",
    "merge_sketches",
    "mergeable",
    "AlgoDescriptor",
    "register_algorithm",
    "unregister_algorithm",
    "get_descriptor",
    "descriptor_of",
    "require_descriptor",
    "registered_kinds",
    "cell_merge_for",
    "GENERIC_KIND",
]
