"""Exact-arithmetic toolkit for cooperative games with externalities.

Computes the Shapley value and its potential for TU games, the MPW solution
and p-Shapley values for games in partition function form, restriction
operators and their induced potentials, and machine checks of the axioms
that single these objects out, all over exact rationals on small player
sets. A Monte Carlo layer, ``sampling``, estimates the same payoffs from
uniform Chinese restaurant draws; it alone needs numpy.

``import pfgames`` loads no submodule: each public name and submodule is
imported on first use, through the table below. Each CLI command likewise
imports only the modules it runs: ``sampling`` and numpy only for
``sample``, ``restriction_ops`` only for an operator spec, and ``verify``
only for ``verify`` and an ``rp:`` operator.
"""

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "errors": "CapacityError PositivityError",
    "formats": "",
    "partitions": "bell_number enumerate_embedded enumerate_partitions insert_player "
                  "mask_from members set_universe_bound universe_bound",
    "random_partitions": "PSTAR EpsilonProfile RandomPartitionFamily ewens_family "
                         "family_from_distributions perturbed_family",
    "restriction_ops": "RestrictionOperator crp_restriction nullifying_restriction "
                       "probability_restriction removal_biased_restriction",
    "tu_games": "TuGame dirac_game null_game potential potential_via_random_partition "
                "potential_via_size_weights shapley_value shapley_via_crp subgame "
                "unanimity_game",
    "tux_games": "TuxGame average_game expected_accumulated_worth externality_free_tu "
                 "is_null_player lift_tu_game mpw_value p_shapley p_shapley_vector "
                 "productive_pair_game",
    "verify": "Report check_ci check_gen check_monotonicity_conditions "
              "check_null_player_axiom check_pos check_restriction_axioms "
              "null_player_witness",
    "sampling": "SampleEstimate estimate_payoff sample_crp",
}
# public name -> the submodule that defines it; a submodule names itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}
# a star import leaves the sampler out, so it never loads numpy
__all__ = sorted(name for name, module in _HOME.items() if module != "sampling")


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys

    # the builtin import, which ``-X importtime`` lists; ``from . import x``
    # would re-enter this hook
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
