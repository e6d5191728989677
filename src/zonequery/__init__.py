"""Zone-partitioned spatial query engine for point catalogs on the sphere.

Catalogs are cut into fixed-height declination zones; queries restrict work
to the zones and ra windows a search region can touch, and a partition plan
spreads zone subsets over parallel workers. Scan, cone-search, and
cross-match results are identical (bit for bit, after canonical sorting) to
single-threaded and brute-force execution.
"""

from .sphere import (
    DEFAULT_ZONE_HEIGHT_DEG,
    SkyPoint,
    ZoneConfig,
    angular_separation,
    zone_dec_range,
    zone_of,
)
from .catalog import (
    IngestError,
    SnapshotFormatError,
    ZoneHistogram,
    ZoneIndex,
    ZoneSlice,
    build_index,
    histogram,
    ingest_csv,
    load_index,
    save_index,
)
from .partition import (
    PartitionPlan,
    WorkloadReport,
    make_plan,
    plan_contiguous,
    plan_density,
    plan_round_robin,
    report,
)
from .queries import (
    ConeQuery,
    MatchPair,
    MatchSpec,
    MatchTable,
    ScanFilter,
    best_matches,
    brute_force_crossmatch,
    cone_search,
    scan_filter,
    zone_crossmatch,
)
from .executor import (
    ExecutionReport,
    WorkerStats,
    aggregate,
    run_cone,
    run_scan,
    run_xmatch,
)
from .synth import (
    BandSpec,
    Clustered,
    DecBand,
    FullSky,
    SyntheticSpec,
    generate_columns,
    generate_index,
    write_csv,
)

__version__ = "0.1.0"
