"""Exact-arithmetic tools for k-piercing and k-slicing brick partitions:
constructions, validation, flat-counting metrics, exhaustive small-case
search, and a canonical interchange/export surface.
"""

from .constructions import (
    BoundKind,
    bounds,
    elementary_piercing_lb,
    grid_partition,
    piercing_2d,
    piercing_3d,
    slicing_3d,
)
from .errors import (
    BrickError,
    BrickOutsideParent,
    ConstructionInvalid,
    ParseError,
    ResourceLimit,
)
from .geometry import (
    Brick,
    Interval,
    as_scalar,
    build_grid,
    format_scalar,
    parse_scalar,
)
from .io_cli import (
    ExportOptions,
    FigureFormat,
    emit_document,
    export_figure,
    parse_document,
)
from .metrics import (
    FlatQuery,
    count_intersections,
    hit_members,
    min_flat_count,
    piercing_number,
    slicing_number,
)
from .partition import (
    BrickPartition,
    FailureKind,
    boundary_incidence,
    cut,
    refine,
    validate,
)
from .sampling import random_split_partition
from .search import (
    Mode,
    SearchProblem,
    SearchStatus,
    exists_partition,
)

__version__ = "0.1.0"
