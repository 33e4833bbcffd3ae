"""Exact combinatorics of iterated wreath products of the simplex
category, Segal's Gamma, Eilenberg-MacLane cell models and their F2
homology.

The public names are re-exported lazily (PEP 562): the first use of a
name imports the module that defines it, so importing the package loads
no module.  The submodules themselves are exported too."""

from importlib import import_module

_EXPORTS = {
    "counting": ("euler_char", "fib_numbers", "gf_coefficients", "gf_em"),
    "gamma": ("FiniteAbelianGroup", "GammaOperator", "compose_gamma", "h_pi_act",
              "hom_gamma", "identity_gamma", "parse_group"),
    "presheaf": ("F2ChainComplex", "FiniteThetaSet", "chain_complex", "em_cell_count",
                 "em_cells", "em_chains", "em_set", "em_words", "homology_f2",
                 "is_nondegenerate", "oracle_multisimplicial", "word_cell"),
    "simplex": ("SimplicialOperator", "compose_delta", "hom_delta", "identity_delta"),
    "theta": ("ThetaOperator", "compose_theta", "gamma_n", "hom_theta", "identity_theta",
              "is_face", "is_retraction", "reedy_factor", "suspend"),
    "trees": ("LevelTree", "enumerate_trees"),
}
# public name -> the module defining it; a submodule is its own home
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
