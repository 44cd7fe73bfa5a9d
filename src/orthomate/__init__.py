"""Orthogonal mates for Latin rectangles via a guided random greedy process."""

from .core import (
    LatinRectangle,
    NotLatin,
    OrthomateError,
    ParseError,
    Shape,
    ShapeMismatch,
    VerifyReport,
    parse_rectangle,
    verify_latin,
    verify_orthogonal,
)
from .matching import (
    DeadSymbol,
    Infeasible,
    NoSupportMatching,
    birkhoff_terms,
    build_fractional_matching,
    normalize_row,
    sample_matching_lazy,
)
from .process import (
    DegenerateDenominator,
    GammaReport,
    GammaViolation,
    GuidanceState,
    ProcessConfig,
    ProcessOutcome,
    advance_state,
    check_gamma,
    init_state,
    run_process,
)
from .baselines import (
    LimitExceeded,
    NoPerfectMatching,
    backtrack_mate,
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
