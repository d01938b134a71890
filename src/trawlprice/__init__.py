"""Integer tick-price processes with transient (fleeting) moves.

Simulation is exact (event-level), the return distribution theory is in
closed form, and estimation is moment-based: jump counts identify the
Levy measure, the variance signature identifies the permanence parameter
and the trawl decay profile.
"""

from .model import (
    ExponentialTrawl,
    LevyMeasure,
    ModelParams,
    SupGammaTrawl,
    SupGigTrawl,
    TabulatedTrawl,
    TrawlSpec,
    bessel_k,
)
from .theory import (
    PmfResult,
    acf,
    expected_pv,
    expected_rv,
    jump_distribution,
    return_cf,
    return_cumulant,
    return_log_cf,
    return_pmf,
)
from .simulate import (
    PricePath,
    SurvivorSet,
    read_path_csv,
    realized_pv,
    returns_at,
    sample_initial_survivors,
    simulate_path,
    window_index,
    write_path_csv,
)
from .estimate import (
    DEFAULT_GRID,
    BootstrapResult,
    EmpiricalStats,
    FitResult,
    NonparametricTrawl,
    bootstrap,
    collect_stats,
    fit_signature,
    jump_empirics,
    levy_from_moments,
    nonparametric_trawl,
    variance_grid,
)
from .clean import CleanConfig, CleanResult, RawColumns, RawTick, clean_ticks, read_raw_csv

__version__ = "0.1.0"

from .cli import main  # noqa: E402  (needs __version__ above)

__all__ = [
    "main",
    "LevyMeasure", "TrawlSpec", "ModelParams", "ExponentialTrawl", "SupGammaTrawl",
    "SupGigTrawl", "TabulatedTrawl", "bessel_k",
    "return_cumulant", "return_log_cf", "return_cf", "return_pmf", "PmfResult",
    "jump_distribution", "acf", "expected_pv", "expected_rv",
    "PricePath", "SurvivorSet", "sample_initial_survivors", "simulate_path",
    "window_index", "returns_at", "realized_pv", "write_path_csv", "read_path_csv",
    "DEFAULT_GRID", "EmpiricalStats", "jump_empirics", "variance_grid", "collect_stats",
    "levy_from_moments", "FitResult", "fit_signature", "BootstrapResult", "bootstrap",
    "NonparametricTrawl", "nonparametric_trawl",
    "RawTick", "RawColumns", "CleanConfig", "CleanResult", "clean_ticks", "read_raw_csv",
    "__version__",
]
