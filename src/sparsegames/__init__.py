"""Safety-game solving and sparse positional winning-strategy extraction.

Quick start::

    from sparsegames import (
        parse_game, compute_winning_region, most_permissive, smart_random_extract,
    )

    game = parse_game(open("game.txt", "rb").read())
    winning = compute_winning_region(game)
    mp = most_permissive(game, winning)
    strategy = smart_random_extract(game, winning, seed=1)
"""

from .errors import (
    GameFormatError,
    InitLosingError,
    InitNotPlayer1Error,
    LpTooLargeError,
    NotAlternatingError,
    SearchSpaceTooLargeError,
    SparseGamesError,
    TimeoutExceededError,
)
from .game import (
    MostPermissiveStrategy,
    PlayWitness,
    PositionalStrategy,
    SafetyGame,
    ValidationVerdict,
    compute_winning_region,
    density,
    most_permissive,
    parse_game,
    restrict_to_reachable,
    search_space_bits,
    serialize_game,
    serialize_strategy,
    validate_strategy,
)
from .generators import gen_adversarial, gen_chain, gen_random
from .heuristics import is_locally_optimal, random_extract, smart_random_extract
from .ilp import ExactResult, ilp_exact_extract
from .lp import (
    LpProblem,
    LpSolution,
    build_relaxation,
    format_lp,
    lp_solve,
    replp_extract,
)
from .mealy import (
    MealyMachine,
    serialize_mealy,
    strategy_to_mealy,
)
from .oracle import brute_force_min_density, enumerate_local_optima
from .rng import SplitMix64
from .sat import (
    Cnf,
    SatOutcome,
    build_cnf,
    encode_at_most_k,
    sat_exact_extract,
    sat_solve,
    to_dimacs,
)

__version__ = "0.1.0"

__all__ = [
    "Cnf",
    "ExactResult",
    "GameFormatError",
    "InitLosingError",
    "InitNotPlayer1Error",
    "LpProblem",
    "LpSolution",
    "LpTooLargeError",
    "MealyMachine",
    "MostPermissiveStrategy",
    "NotAlternatingError",
    "PlayWitness",
    "PositionalStrategy",
    "SafetyGame",
    "SatOutcome",
    "SearchSpaceTooLargeError",
    "SparseGamesError",
    "SplitMix64",
    "TimeoutExceededError",
    "ValidationVerdict",
    "brute_force_min_density",
    "build_cnf",
    "build_relaxation",
    "compute_winning_region",
    "density",
    "encode_at_most_k",
    "enumerate_local_optima",
    "format_lp",
    "gen_adversarial",
    "gen_chain",
    "gen_random",
    "ilp_exact_extract",
    "is_locally_optimal",
    "lp_solve",
    "most_permissive",
    "parse_game",
    "random_extract",
    "replp_extract",
    "restrict_to_reachable",
    "sat_exact_extract",
    "sat_solve",
    "search_space_bits",
    "serialize_game",
    "serialize_mealy",
    "serialize_strategy",
    "smart_random_extract",
    "strategy_to_mealy",
    "to_dimacs",
    "validate_strategy",
]
