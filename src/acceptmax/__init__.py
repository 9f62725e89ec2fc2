"""Acceptance-maximizing collective decisions over (rule, outcome) pairs.

Importing the package loads none of its modules. Each exported name, and
each module name (``acceptmax.bounds``), is resolved on first access
(PEP 562), so a command loads only the modules it uses.
"""

__version__ = "0.1.0"

# Every export, keyed by its defining module. ``cli`` and ``serialize``
# export nothing here but still resolve as attributes.
_EXPORTS = {
    "core": (
        "Decision",
        "GenericInstance",
        "OracleResult",
        "RuleRef",
        "SatisfyingSpec",
        "SolveReport",
        "ValidationError",
        "accepts",
        "max_accept",
        "oracle_max_accept",
        "substitute_absolute_disjunctivists",
    ),
    "adc": (
        "AdcAgent",
        "AdcInstance",
        "adc_to_generic",
        "delta_of",
        "majority_threshold",
        "threshold_family",
        "threshold_of",
    ),
    "amendment": (
        "AmendmentInstance",
        "AmendmentTrace",
        "OneStepReport",
        "VotePolicy",
        "amend_iterative",
        "amend_one_step",
        "check_universal_acceptance",
        "h_threshold",
        "induce_profile",
    ),
    "bounds": ("BoundsReport", "CLASSES", "table1_formula", "worst_case_rate"),
    "cli": (),
    "serialize": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import binds the module here. ``-X importtime`` reports imports made
    # by ``__import__``, not those made by ``importlib.import_module``.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys() | _EXPORTS.keys())
