"""access_atlas: multidimensional food-access analysis over census tracts.

Builds ten access variables from tract geometry, provider points, a road
network, and demographics; runs correlation-matrix PCA to surface
vulnerable-population dimensions; measures spatial autocorrelation; and
renders box-map choropleths.
"""

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
