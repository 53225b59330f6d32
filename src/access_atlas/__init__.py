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
    AdjacencyList,
    Polygon,
    ProjectedPoint,
    availability_counts,
    circle_intersects_polygon,
    point_in_polygon,
    polygon_area_centroid,
    project_lonlat,
    queen_adjacency,
)
from .ingest import (
    DemographicRecord,
    ProviderPoint,
    TractGeometry,
    VariableTable,
    VARIABLE_COLUMNS,
    assemble_variable_table,
    load_demographics,
    load_providers,
    load_tracts,
)
from .network import (
    RoadNetwork,
    build_network,
    multisource_shortest_distances,
    snap_point,
    tract_network_distance,
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
