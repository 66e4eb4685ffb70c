"""Always-on counters for the hot kernels: packed Clifford and dense.

The packed conjugation path (``paulis/packed_table.py``,
``stabilizer/tableau.py``) is the hot loop below every
``loss.evaluate_many`` span, and the fused superoperator schedules
(``densesim/schedule.py``) the one below every device-model energy; this
module gives both a profile without timing them.  Call sites bump plain
integer attributes on the process singletons :data:`KERNEL` and
:data:`DENSE` -- a few Python int adds per *gate application* or per
*schedule run* (never per row, word or block), derived from shapes the
kernel already computed, so the counters stay inside the <2%
observability overhead budget (``benchmarks/test_obs_overhead.py``
asserts they advance *and* that the budget holds).

Packed-kernel vocabulary (:data:`KERNEL`):

- ``words``         uint64 words run through a LUT/XOR update
- ``rows``          Pauli-table rows touched by those updates
- ``lut_hits`` / ``lut_misses``   conjugation + leveled LUT cache
- ``fused_passes``  fused leveled-LUT single passes (PR 9 fast path)

Dense-schedule vocabulary (:data:`DENSE`):

- ``schedules``     fused superoperator schedules compiled
- ``blocks``        fused blocks applied to a density matrix
- ``elements``      rho elements those block matmuls read

Process-pool children bump their own (fresh) singleton; the engine
ships ``KERNEL.snapshot()`` deltas back over the existing cache-stats
return path and the parent folds them in with :meth:`Counters.add` --
the same aggregation idiom as ``EngineResult.cache_stats``.  Dense work
runs in the process that estimates energies, so :data:`DENSE` is not
shipped.

:func:`publish_kernel_metrics` mirrors both singletons into Prometheus
counters (monotonic, delta-since-last-publish) so ``GET /metrics``
exposes fleet-wide word throughput and dense block counts.
"""

from __future__ import annotations

import threading

from .metrics import REGISTRY

#: The snapshot/delta field order (stable; used by wire payloads too).
FIELDS = ("words", "rows", "lut_hits", "lut_misses", "fused_passes")
DENSE_FIELDS = ("schedules", "blocks", "elements")


class Counters:
    """Plain-attribute counters: increments are unlocked int adds.

    Lock-free on purpose -- CPython attribute adds on ints can race
    across threads only by *losing* increments, never corrupting, and
    the kernels run single-threaded per evaluation; the accounting is a
    profile, not a ledger.  Subclasses name their fields in ``FIELDS``.
    """

    FIELDS: tuple[str, ...] = ()
    __slots__ = ()

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def delta(self, since: dict) -> dict:
        """Counters advanced since a previous :meth:`snapshot`."""
        return {name: getattr(self, name) - since.get(name, 0)
                for name in self.FIELDS}

    def add(self, delta: dict) -> None:
        """Fold a child's delta into this (parent) singleton."""
        for name in self.FIELDS:
            value = delta.get(name, 0)
            if value:
                setattr(self, name, getattr(self, name) + int(value))


class KernelCounters(Counters):
    """The packed Clifford kernels' counters."""

    FIELDS = FIELDS
    __slots__ = FIELDS


class DenseCounters(Counters):
    """The fused dense schedules' counters."""

    FIELDS = DENSE_FIELDS
    __slots__ = DENSE_FIELDS


#: Process singleton every packed-kernel call site increments.
KERNEL = KernelCounters()
#: Process singleton the dense schedule compiler and runner increment.
DENSE = DenseCounters()

_PROM = {
    "words": REGISTRY.counter(
        "repro_kernel_words_total",
        "uint64 words conjugated by the packed kernels"),
    "rows": REGISTRY.counter(
        "repro_kernel_rows_total",
        "Pauli-table rows touched by packed kernel updates"),
    "lut_hits": REGISTRY.counter(
        "repro_kernel_lut_hits_total",
        "Conjugation/leveled LUT cache hits"),
    "lut_misses": REGISTRY.counter(
        "repro_kernel_lut_misses_total",
        "Conjugation/leveled LUT cache misses (builds)"),
    "fused_passes": REGISTRY.counter(
        "repro_kernel_fused_passes_total",
        "Fused leveled-LUT single passes over a packed table"),
}
_DENSE_PROM = {
    "schedules": REGISTRY.counter(
        "repro_densesim_schedules_total",
        "Fused superoperator schedules compiled"),
    "blocks": REGISTRY.counter(
        "repro_densesim_blocks_total",
        "Fused superoperator blocks applied to a density matrix"),
    "elements": REGISTRY.counter(
        "repro_densesim_elements_total",
        "Density-matrix elements read by fused block matmuls"),
}

_publish_lock = threading.Lock()
_MIRRORS = ((KERNEL, _PROM, {name: 0 for name in FIELDS}),
            (DENSE, _DENSE_PROM, {name: 0 for name in DENSE_FIELDS}))


def publish_kernel_metrics() -> None:
    """Mirror :data:`KERNEL` and :data:`DENSE` into Prometheus.

    Prometheus counters only go up, so each call publishes the delta
    since the last publish -- safe to call from ``/metrics`` scrapes at
    any frequency.
    """
    with _publish_lock:
        for counters, families, published in _MIRRORS:
            snap = counters.snapshot()
            for name, family in families.items():
                advance = snap[name] - published[name]
                if advance > 0:
                    family.inc(advance)
                    published[name] = snap[name]
