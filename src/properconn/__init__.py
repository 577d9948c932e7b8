"""properconn: proper connection numbers of small graphs.

An edge coloring properly connects a graph when every vertex pair is
joined by a path whose consecutive edges differ in color. This package
computes the minimum number of colors exactly on small graphs, builds
verified two-color certificates constructively, and runs exhaustive
minimum-degree surveys over all small graph isomorphism classes.
"""

from .coloring import (
    EdgeColoring,
    first_improper_pair,
    first_weak_pair,
    has_strong_property,
    is_proper_connected,
    is_proper_path,
    make_coloring,
)
from .constructive import (
    PcCertificate,
    certificate_from_json,
    certificate_to_json,
    color_tree,
    coloring_from_json,
    extend_vertex,
    glue_across_bridge,
    pc2_pipeline,
    strong_coloring_bridgeless,
)
from .errors import (
    ColoringGraphMismatch,
    DegreeTooLow,
    Disconnected,
    HasBridge,
    LoopEdge,
    MalformedGraph6,
    NotABridge,
    NotAPath,
    NotATree,
    OutOfRange,
    OverlappingSets,
    PcError,
    SearchBudgetExceeded,
    TooLarge,
    TooSmall,
    UnsuitableBase,
    VerificationExhausted,
    VerificationFailed,
    VertexOutOfRange,
)
from .graph import (
    Bipartition,
    Graph,
    bipartition,
    canonical_code,
    degree_stats,
    find_bridges,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    is_complete,
    is_connected,
    is_tree,
    parse_edge_list_text,
    to_graph6,
)
from .solver import VerificationReport, pc_exact, pc_upper, verify_certificate
from .survey import (
    ExceptionRecord,
    SurveyReport,
    UnresolvedRecord,
    enumerate_connected,
    exceptional_graphs,
    format_report_text,
    make_star_of_bicliques,
    read_graph6_file,
    report_to_json,
    survey_bipartite,
    survey_min_degree,
    write_report,
)

__version__ = "0.1.0"
