"""Desk-scale toolkit for size-Ramsey experiments on powers of paths.

Exposes immutable graphs with power/blow-up constructors, a pseudorandom
class generator and verifier, two-colour cover and long-path engines, a
brute-force arrow oracle, and validated embedding machinery, all tied
together by an induction-step pipeline and CLI.
"""

# Reports are written with serialize.dump_report, so the module is loaded with the package.
from . import serialize
from .colouring import (
    ArrowVerdict,
    AuxColouring,
    EdgeColouring,
    arrow_check,
    blue_path_to_blue_power,
    build_aux_colouring,
    find_blue_biclique,
    find_subgraph,
    kst_bound_check,
    mono_clique_in_clique,
)
from .embedding import (
    ConstantsChain,
    Embedding,
    LLLInstance,
    check_template_containment,
    constants_chain,
    embed_base_case,
    lll_embed,
    make_lll_instance,
    validate_embedding,
)
from .errors import (
    BaseCaseError,
    BudgetExceededError,
    CertificationError,
    ConstructionError,
    GraphFormatError,
    LLLFailureError,
    NoPathFoundError,
    ParameterError,
    PathRamseyError,
    PreconditionError,
)
from .graphs import (
    BlowupMap,
    Graph,
    complete_blowup,
    complete_graph,
    cycle_graph,
    distances,
    girth_violation,
    graph_from_text,
    graph_to_text,
    induced_subgraph,
    max_degree,
    path_graph,
    path_power,
    power,
    random_graph,
    sheared_blowup,
)
from .partition import (
    PartitionResult,
    auxiliary_graph,
    long_path_through_sets,
    partition_two_coloured,
    prune_top,
    segment_path,
    sparsify,
    verify_partition,
)
from .pipeline import (
    PipelineConfig,
    StepOutcome,
    base_case_driver,
    build_step_host,
    induction_step,
)
from .pseudorandom import (
    ClassPParams,
    DensityCertificate,
    GenerationConfig,
    GenerationLog,
    GoodQuadruple,
    fit_density_certificate,
    generate_class_p,
    is_good,
    quad,
    verify_class_p,
    verify_edgeboost,
)

__version__ = "0.1.0"
