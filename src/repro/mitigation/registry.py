"""The open mitigation registry: ``@register_mitigation`` + spec grammar.

Every consumer of the mitigation axis -- ``Experiment.run``,
``InitializationMethod.run``, campaign specs, the CLI -- resolves
mitigation selections through this module, so a strategy registered from
user code (no core edits) runs everywhere a built-in does::

    from repro.mitigation import MitigationStrategy, register_mitigation

    @register_mitigation
    class MyMitigation(MitigationStrategy):
        name = "my_mitigation"
        description = "one line for `repro mitigations`"
        ...

Beyond bare names, :func:`resolve_mitigation` understands a declarative
spec grammar::

    none                      the default (bit-identical passthrough)
    zne:folds=5,fit=exp       a parameterized stage (key=value, ','-joined)
    zne:folds=3|readout       a '|'-composed stack, leftmost outermost

The registry is a :class:`repro.registry.Registry`; lookups of unknown
names fail with a did-you-mean suggestion naming the registered
mitigations.
"""

from __future__ import annotations

import re

from ..registry import Registry, parse_params
from .strategies import (
    ComposedMitigation,
    MitigationStrategy,
    NoMitigation,
    ReadoutMitigation,
    ZNEMitigation,
)

#: The strategy every surface defaults to: no mitigation at all.  Campaign
#: task ids and labels omit the axis at this value, so default grids stay
#: byte-identical to pre-mitigation stores.
DEFAULT_MITIGATION = "none"

MITIGATION_REGISTRY: Registry[MitigationStrategy] = Registry(
    "mitigation", MitigationStrategy)
register_mitigation = MITIGATION_REGISTRY.register
unregister_mitigation = MITIGATION_REGISTRY.unregister
mitigation_names = MITIGATION_REGISTRY.names
available_mitigations = MITIGATION_REGISTRY.snapshot
get_mitigation = MITIGATION_REGISTRY.get


def parse_mitigation(spec: str) -> MitigationStrategy:
    """Parse a declarative spec into a (possibly composed) strategy.

    Grammar: ``stage("|" stage)*`` where a stage is
    ``name(":" key "=" value ("," key "=" value)*)?``.  Stage names resolve
    through the registry (did-you-mean on typos); parameters parse as by
    :func:`repro.registry.parse_params` and go through the prototype's
    ``parameterize``.
    """
    stages = []
    for part in str(spec).split("|"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty stage in mitigation spec {spec!r}")
        name, colon, param_text = part.partition(":")
        base = get_mitigation(name.strip())
        params = (parse_params(param_text, spec, "mitigation") if colon
                  else {})
        stages.append(base.parameterize(**params) if params else base)
    if len(stages) == 1:
        return stages[0]
    return ComposedMitigation(stages)


def resolve_mitigation(mitigation=None) -> MitigationStrategy:
    """Normalize a mitigation selection into a strategy instance.

    Accepts ``None`` (the ``none`` default), a registered name, a spec in
    the ``"zne:folds=3|readout"`` grammar, or a
    :class:`MitigationStrategy` instance.
    """
    if mitigation is None:
        mitigation = DEFAULT_MITIGATION
    if isinstance(mitigation, MitigationStrategy):
        return mitigation
    if isinstance(mitigation, str):
        if mitigation in MITIGATION_REGISTRY:
            return get_mitigation(mitigation)
        return parse_mitigation(mitigation)
    raise TypeError(
        f"mitigation must be a registered name, a 'zne:folds=3|readout' "
        f"spec, or a MitigationStrategy instance, got {mitigation!r}")


_PARAM_FRAGMENT = re.compile(r"^[A-Za-z_]\w*=")


def split_mitigation_specs(text: str) -> list[str]:
    """Split a comma-separated CLI list of mitigation specs.

    Specs themselves contain commas (``zne:folds=3,fit=exp``), so a naive
    split would shear them apart; bare ``key=value`` fragments are glued
    back onto the preceding spec (mitigation *names* never contain ``=``)::

        "none,zne:folds=3,fit=exp,readout"
            -> ["none", "zne:folds=3,fit=exp", "readout"]
    """
    specs: list[str] = []
    for fragment in str(text).split(","):
        fragment = fragment.strip()
        if not fragment:
            continue
        if specs and _PARAM_FRAGMENT.match(fragment):
            specs[-1] += "," + fragment
        else:
            specs.append(fragment)
    return specs


# Built-ins, in the order `repro mitigations` lists them.
for _builtin in (NoMitigation, ZNEMitigation, ReadoutMitigation):
    register_mitigation(_builtin)
del _builtin
