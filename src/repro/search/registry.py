"""The open strategy registry: ``@register_strategy`` + name lookup.

Every consumer of the search axis -- ``InitializationMethod.run``,
``Experiment.run``, campaign specs, the CLI -- resolves strategy names
through this module, so a strategy registered from user code (no core
edits) runs everywhere a built-in does::

    from repro.search import SearchStrategy, register_strategy

    @register_strategy
    class MyStrategy(SearchStrategy):
        name = "my_strategy"
        description = "one line for `repro strategies`"
        ...

The registry is a :class:`repro.registry.Registry` (as for
``repro.methods``); lookups of unknown names fail with a did-you-mean
suggestion naming the registered strategies.
"""

from __future__ import annotations

from ..registry import Registry
from .base import SearchStrategy

#: The strategy every surface defaults to: the paper's Figure-4 engine.
DEFAULT_STRATEGY = "multi_ga"

STRATEGY_REGISTRY: Registry[SearchStrategy] = Registry(
    "strategy", SearchStrategy, plural="strategies")
register_strategy = STRATEGY_REGISTRY.register
unregister_strategy = STRATEGY_REGISTRY.unregister
strategy_names = STRATEGY_REGISTRY.names
available_strategies = STRATEGY_REGISTRY.snapshot
get_strategy = STRATEGY_REGISTRY.get


def resolve_strategy(strategy=None) -> SearchStrategy:
    """Normalize a strategy selection into a registry instance.

    Accepts ``None`` (the Figure-4 default ``multi_ga``), a registered
    name, or a :class:`SearchStrategy` instance.
    """
    if strategy is None:
        strategy = DEFAULT_STRATEGY
    if isinstance(strategy, SearchStrategy):
        return strategy
    if isinstance(strategy, str):
        return get_strategy(strategy)
    raise TypeError(
        f"strategy must be a registered name or a SearchStrategy "
        f"instance, got {strategy!r}")
