"""Orthogonal mates for Latin rectangles via a guided random greedy process."""

from .core import (
    IndexOutOfRange,
    LatinRectangle,
    LineId,
    NotLatin,
    OrthomateError,
    ParseError,
    Point,
    Shape,
    ShapeMismatch,
    VerifyReport,
    line_members,
    parse_rectangle,
    verify_latin,
    verify_orthogonal,
)
from .matching import (
    DeadSymbol,
    Infeasible,
    NoSupportMatching,
    TooLarge,
    birkhoff_decompose,
    birkhoff_terms,
    build_fractional_matching,
    cut_check_bruteforce,
    normalize_row,
    sample_matching,
    sample_matching_lazy,
)
from .process import (
    DegenerateDenominator,
    GammaReport,
    GammaViolation,
    GuidanceState,
    ProcessConfig,
    ProcessOutcome,
    RowAlreadyColoured,
    advance_state,
    central_projections,
    check_gamma,
    init_state,
    kill_mask,
    run_process,
)
from .baselines import (
    LimitExceeded,
    NoPerfectMatching,
    backtrack_mate,
    build_legality_graph,
    hall_greedy,
    random_latin_rectangle,
)
from .diagnostics import (
    EmptyTrajectory,
    StepRecord,
    SummaryReport,
    TrajectoryRecorder,
    TrajectoryStats,
    summarize,
)

__version__ = "0.1.0"
