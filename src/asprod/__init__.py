"""Almost-sure-productivity analysis for probabilistic stream and tree
definitions: syntactic drift measure, pushdown translation, pop-probability
equation systems, and a three-tier decision procedure with Monte Carlo
evidence."""

from .terms import (
    Choice,
    Cons,
    Definition,
    InvalidDefinition,
    Kind,
    Left,
    Mk,
    RecVar,
    Right,
    Tail,
    Term,
    subterms,
)
from .syntax import ParseError, format_term, parse_definition, parse_file, pretty_print
from .measure import Tier1, measure, tier1_verdict
from .semantics import (
    McHint,
    McReport,
    PeriodicWord,
    SamplerLimitError,
    UNIFORM,
    monte_carlo,
    parse_policy,
)
from .ppda import Move, Ppda, export, translate
from .eqsys import (
    AlmostSureReturn,
    EqSystem,
    Equation,
    Monomial,
    SubReturn,
    Unknown,
    build_system,
    certify_subreturn,
    classify_heads,
    clean,
    kleene_solve,
    newton_solve,
    smt_export,
    spectral_le_one,
    subreturn_candidate,
    subreturn_certificates,
)
from .decide import (
    AnalyzerConfig,
    AspResult,
    BuchiResult,
    GroundChain,
    InternalInconsistencyError,
    Tier,
    Tier3Mode,
    Verdict,
    buchi_verdict,
    decide_asp,
    exact_analysis,
    ground_chain,
)

__version__ = "0.1.0"
