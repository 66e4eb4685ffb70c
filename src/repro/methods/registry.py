"""The open method registry: ``@register_method`` + name lookup.

Every consumer of the method axis -- ``Experiment.run``, campaign specs,
reports, the CLI -- resolves method names through this module, so a method
registered from user code (no core edits) runs everywhere a built-in does::

    from repro.methods import InitializationMethod, register_method

    @register_method
    class MyMethod(InitializationMethod):
        name = "my_method"
        description = "one line for `repro methods`"
        ...

The registry is a :class:`repro.registry.Registry`; lookups of unknown
names fail with a did-you-mean suggestion naming the registered methods.
"""

from __future__ import annotations

from ..naming import did_you_mean
from ..registry import Registry
from .base import InitializationMethod

#: The built-in trio, in the paper's presentation order.  This is the
#: default method set of :meth:`Experiment.run` and campaign specs (the
#: extra in-tree methods -- ``random_clifford``, ``vanilla`` -- are opt-in).
DEFAULT_METHODS: tuple[str, ...] = ("cafqa", "ncafqa", "clapton")

METHOD_REGISTRY: Registry[InitializationMethod] = Registry(
    "method", InitializationMethod)
register_method = METHOD_REGISTRY.register
unregister_method = METHOD_REGISTRY.unregister
method_names = METHOD_REGISTRY.names
available_methods = METHOD_REGISTRY.snapshot
get_method = METHOD_REGISTRY.get


def resolve_methods(methods=None) -> list[InitializationMethod]:
    """Normalize a method selection into registry instances.

    Accepts ``None`` (the built-in trio), a single name or instance, or an
    iterable mixing names and :class:`InitializationMethod` instances.
    Unknown names raise ``ValueError`` listing every registered method.
    """
    if methods is None:
        methods = DEFAULT_METHODS
    if isinstance(methods, (str, InitializationMethod)):
        methods = (methods,)
    resolved: list[InitializationMethod] = []
    unknown: list[str] = []
    for method in methods:
        if isinstance(method, InitializationMethod):
            resolved.append(method)
        elif isinstance(method, str):
            if method in METHOD_REGISTRY:
                resolved.append(get_method(method))
            else:
                unknown.append(method)
        else:
            raise TypeError(
                f"methods must be registered names or "
                f"InitializationMethod instances, got {method!r}")
    if unknown:
        names = method_names()
        raise ValueError(
            f"unknown methods {unknown}{did_you_mean(unknown[0], names)}; "
            f"registered methods: {list(names)}")
    return resolved
