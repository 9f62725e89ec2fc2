"""Acceptance-maximizing collective decisions over (rule, outcome) pairs.

Import each name from the module that defines it: ``acceptmax.core`` (the
generic model, acceptance and both maximizers), ``acceptmax.adc`` (binary
supermajority decisions), ``acceptmax.amendment``, ``acceptmax.bounds``,
``acceptmax.serialize`` and ``acceptmax.cli``. Importing the package loads
none of them, so a command loads only the modules it uses.
"""

__version__ = "0.1.0"
