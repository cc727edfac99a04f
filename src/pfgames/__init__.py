"""Exact-arithmetic toolkit for cooperative games with externalities.

Computes the Shapley value and its potential for TU games, the MPW solution
and p-Shapley values for games in partition function form, restriction
operators and their induced potentials, and machine checks of the axioms
that single these objects out, all over exact rationals on small player
sets. A Monte Carlo layer, ``sampling``, estimates the same payoffs from
uniform Chinese restaurant draws. It alone needs numpy and is imported on
first use, so ``import pfgames`` and the exact commands never load numpy.
"""

from .errors import CapacityError, PositivityError
from .partitions import (
    bell_number,
    enumerate_embedded,
    enumerate_partitions,
    insert_player,
    mask_from,
    members,
    set_universe_bound,
    universe_bound,
)
from .random_partitions import (
    PSTAR,
    EpsilonProfile,
    RandomPartitionFamily,
    ewens_family,
    family_from_distributions,
    perturbed_family,
)
from .restriction_ops import (
    RestrictionOperator,
    crp_restriction,
    nullifying_restriction,
    probability_restriction,
    removal_biased_restriction,
)
from .tu_games import (
    TuGame,
    dirac_game,
    null_game,
    potential,
    potential_via_random_partition,
    potential_via_size_weights,
    shapley_value,
    shapley_via_crp,
    subgame,
    unanimity_game,
)
from .tux_games import (
    TuxGame,
    average_game,
    expected_accumulated_worth,
    externality_free_tu,
    is_null_player,
    lift_tu_game,
    mpw_value,
    p_shapley,
    p_shapley_vector,
    productive_pair_game,
)
from .verify import (
    Report,
    check_ci,
    check_gen,
    check_monotonicity_conditions,
    check_null_player_axiom,
    check_pos,
    check_restriction_axioms,
    null_player_witness,
)

__version__ = "0.1.0"

_SAMPLER_NAMES = frozenset({"sampling", "SampleEstimate", "estimate_payoff", "sample_crp"})


def __getattr__(name):
    if name in _SAMPLER_NAMES:
        import importlib  # ``from . import sampling`` would re-enter this hook

        sampling = importlib.import_module(".sampling", __name__)
        return sampling if name == "sampling" else getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SAMPLER_NAMES})
