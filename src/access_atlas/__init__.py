"""access_atlas: multidimensional food-access analysis over census tracts.

Builds ten access variables from tract geometry, provider points, a road
network, and demographics; runs correlation-matrix PCA to surface
vulnerable-population dimensions; measures spatial autocorrelation; and
renders box-map choropleths.
"""

import os

# One OpenBLAS thread, set before the first import that loads numpy
# (.geometry). The package's only BLAS calls are `z.T @ z`, `z @ loadings`,
# a 10 x 10 `eigh` and the Moran pair product (weights times an E x 10
# block, once per permutation), all too small for a second thread;
# yet OpenBLAS starts its worker when numpy loads, and that worker
# busy-waits on another core for 0.1-0.13 s of every process (measured on a
# 2-vCPU VM). A value already in the environment wins, and so does a BLAS
# that numpy loaded before this import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    AccessAtlasError,
    ConfigError,
    ConstantColumnError,
    DegenerateGeometry,
    DomainError,
    EmptyTableError,
    NumericalError,
    RangeError,
    SchemaError,
    SnapError,
)
from .geometry import (
    Tracts,
    availability_counts,
    pack_tracts,
    project_lonlat,
    queen_adjacency,
)
from .ingest import (
    Demographics,
    Providers,
    VariableTable,
    VARIABLE_COLUMNS,
    assemble_variable_table,
    load_demographics,
    load_providers,
    load_tracts,
)
from .network import (
    RoadEdges,
    RoadNetwork,
    RoadNodes,
    build_network,
    load_road_edges,
    load_road_network,
    load_road_nodes,
    multisource_shortest_distances,
)
from .report import BOX_CLASSES, boxmap_classify, emit_geojson, emit_svg_choropleth
from .stats import (
    ContributorThresholds,
    MoranResult,
    PcaResult,
    classify_contributors,
    correlation_matrix,
    loading_profile_correlation,
    morans_i,
    pca,
    standardize,
)

__version__ = "0.1.0"
