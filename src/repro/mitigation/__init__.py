"""Composable error mitigation: a first-class experiment axis (Sec. 8).

Two layers live here:

* **Primitives** (``folding``, ``zne``, ``readout``): digital gate folding,
  extrapolation fits, confusion-matrix inversion.  Importable directly for
  one-off analysis (``zne_energy`` on a bound circuit).
* **Strategies** (``strategies``, ``registry``): the
  :class:`MitigationStrategy` protocol (``wrap(estimator) -> Estimator``)
  behind a generic :class:`~repro.registry.Registry`.
  ``resolve_mitigation`` understands the declarative
  ``"zne:folds=3|readout"`` grammar, and every surface --
  ``Experiment.run(mitigation=)``, campaign ``mitigations`` grids,
  ``repro run --mitigation`` -- resolves through it.
"""

from .folding import fold_gates, fold_global, fold_template_global
from .zne import (
    ZNEResult,
    exponential_extrapolation,
    linear_extrapolation,
    richardson_extrapolation,
    zne_energy,
)
from .readout import (
    confusion_matrices,
    counts_to_probabilities,
    mitigate_counts,
    mitigate_probabilities,
    z_expectation_from_probabilities,
)
from .strategies import (
    ComposedMitigation,
    MitigationStrategy,
    NoMitigation,
    ReadoutMitigation,
    ZNEMitigation,
)
from .registry import (
    DEFAULT_MITIGATION,
    available_mitigations,
    get_mitigation,
    mitigation_names,
    parse_mitigation,
    register_mitigation,
    resolve_mitigation,
    split_mitigation_specs,
    unregister_mitigation,
)

__all__ = [
    "ComposedMitigation", "DEFAULT_MITIGATION", "MitigationStrategy",
    "NoMitigation", "ReadoutMitigation", "ZNEMitigation", "ZNEResult",
    "available_mitigations", "confusion_matrices", "counts_to_probabilities",
    "exponential_extrapolation", "fold_gates", "fold_global",
    "fold_template_global", "get_mitigation", "linear_extrapolation",
    "mitigate_counts", "mitigate_probabilities", "mitigation_names",
    "parse_mitigation", "register_mitigation", "resolve_mitigation",
    "richardson_extrapolation", "split_mitigation_specs",
    "unregister_mitigation", "z_expectation_from_probabilities",
    "zne_energy",
]
