"""Chain isoperimetric profiles of group presentations."""

from .enumeration import (
    connected_chains_up_to_action,
    connected_cycles_up_to_action,
    reachable_chains,
)
from .errors import (
    AlphabetError,
    BudgetExceededError,
    ChainProfileError,
    InputError,
    InvalidSkeletonError,
    OracleUndecidedError,
    ParseError,
    WrongAlgorithmError,
)
from .inputs import (
    bundled_examples,
    format_chain,
    load_example,
    load_input,
    parse_chain,
    read_delta,
)
from .profiles import (
    Budget,
    ProfileTable,
    chain2_bound,
    disk_combination,
    filling_volume,
    finite_profile,
    minimal_filling,
    phi_table,
    psi_table,
)
from .skeleton import (
    Chain,
    LiftedCell,
    SkeletonSpec,
    add_chains,
    boundary,
    build_chain,
    chain_from_json,
    chain_to_json,
    chains_equal,
    coboundary,
    components,
    is_connected,
    is_cycle,
    is_subchain,
    negate,
    norm,
    presentation_complex,
    scale_chain,
    skeleton_fingerprint,
    subchains,
    translate,
    validate,
    zero_chain,
)
from .words import (
    BoundedBFSOracle,
    FiniteTableOracle,
    FreeAbelianOracle,
    FreeOracle,
    OracleVerdict,
    Presentation,
    Word,
    WordOracle,
    compose,
    free_reduce,
    invert,
    is_trivial,
    make_presentation,
    oracle_from_config,
    parse_presentation,
    parse_word,
    words_equal,
)

__version__ = "0.1.0"
