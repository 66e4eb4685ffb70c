"""The open benchmark registry: paper suite, parameterized families, suites.

Three kinds of names resolve through :func:`get_benchmark`:

* **Fixed names** -- the paper's Sec. 5.1 suite as before: Ising and XXZ
  chains at J in {0.25, 0.50, 1.00} and three molecules at two bond
  lengths each.  Chemistry Hamiltonians are built on first use and cached.
* **Parameterized specs** -- ``"family:key=value,..."`` strings such as
  ``"ising:n=12,J=0.3"`` or ``"molecule:name=LiH,l=2.5"``, resolved
  against families registered with :func:`register_benchmark`.
* **Suites** -- ``"suite:<name>"`` entries expand (via
  :func:`expand_benchmarks`, used by campaign grids and the CLI) into
  lists of the above; ``suite:physics`` / ``suite:chemistry`` /
  ``suite:paper`` are built in and :func:`register_suite` adds more.

Registering a new workload is one decorator, no core edits::

    from repro.hamiltonians import register_benchmark

    @register_benchmark(name="heis", kind="physics",
                        description="my Heisenberg chain; params n, J")
    def build_heis(n: int = 10, J: float = 1.0) -> PauliSum:
        ...

after which ``"heis:n=8,J=0.5"`` works in ``repro run``, campaign specs,
and reports.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from ..naming import did_you_mean
from ..paulis.pauli_sum import PauliSum
from ..registry import Registry, parse_params
from .spin_models import PAPER_COUPLINGS, ising_model, xxz_model


@dataclass(frozen=True)
class Benchmark:
    """One VQE problem of the evaluation suite.

    Attributes:
        name: Registry key, e.g. ``"ising_J0.25"``, ``"H2O_l1.0"``, or a
            parameterized spec like ``"ising:n=12,J=0.3"``.
        kind: ``"physics"`` or ``"chemistry"``.
        num_qubits: Hamiltonian width (0 when unknown until built).
        build: Zero-argument constructor of the :class:`PauliSum`.
        description: One line for ``repro benchmarks``.
    """

    name: str
    kind: str
    num_qubits: int
    build: Callable[[], PauliSum]
    description: str = ""

    def hamiltonian(self) -> PauliSum:
        key = (self.name, self.num_qubits)
        if key not in _BUILD_CACHE:
            _BUILD_CACHE[key] = self.build()
        return _BUILD_CACHE[key]


_BUILD_CACHE: dict[tuple[str, int], PauliSum] = {}


# ----------------------------------------------------------------------
# Parameterized families
# ----------------------------------------------------------------------
def _n_width(params: dict) -> int:
    return int(params.get("n", 0))


@dataclass(frozen=True)
class BenchmarkFamily:
    """A registered parameterized benchmark builder."""

    name: str
    kind: str
    description: str
    builder: Callable[..., PauliSum]
    #: params -> register width; 0 means "unknown until built".
    width: Callable[[dict], int] = _n_width

    @property
    def params(self) -> list[str]:
        return list(inspect.signature(self.builder).parameters)

    @property
    def spec_syntax(self) -> str:
        return f"{self.name}:" + ",".join(f"{p}=..." for p in self.params)


FAMILY_REGISTRY: Registry[BenchmarkFamily] = Registry(
    "benchmark family", BenchmarkFamily, plural="benchmark families")
unregister_benchmark = FAMILY_REGISTRY.unregister
benchmark_families = FAMILY_REGISTRY.snapshot
_SUITES: dict[str, tuple[str, ...]] = {}


def register_benchmark(builder=None, *, name: str | None = None,
                       kind: str = "physics", description: str = "",
                       num_qubits=None, replace: bool = False):
    """Register a parameterized benchmark family.

    The decorated callable takes keyword parameters (all with defaults is
    friendliest) and returns a :class:`~repro.paulis.pauli_sum.PauliSum`.
    ``"<name>:key=value,..."`` specs then resolve against it anywhere a
    benchmark name is accepted.

    Args:
        name: Family name; defaults to the builder's ``__name__``.
        kind: ``"physics"`` or ``"chemistry"`` (CLI filtering).
        description: One line for ``repro benchmarks``.
        num_qubits: Register width -- an int, or a callable mapping the
            parsed parameter dict to one; defaults to the ``n`` parameter
            (0 = unknown until built).
        replace: Allow overriding an existing family.
    """
    def _register(fn):
        family_name = name or fn.__name__
        if ":" in family_name or "," in family_name or "=" in family_name:
            raise ValueError(
                f"benchmark family name {family_name!r} may not contain "
                f"':', ',' or '='")
        if num_qubits is None:
            width = _n_width
        elif callable(num_qubits):
            width = num_qubits
        else:
            width = lambda params, _n=int(num_qubits): _n  # noqa: E731
        FAMILY_REGISTRY.register(
            BenchmarkFamily(name=family_name, kind=kind,
                            description=description, builder=fn,
                            width=width),
            replace=replace)
        return fn

    if builder is None:
        return _register
    return _register(builder)


def parse_benchmark_spec(spec: str) -> tuple[str, dict]:
    """Split ``"family:key=value,..."`` into ``(family, params)``.

    Values parse as by :func:`repro.registry.parse_params`.
    """
    family, _, params_text = spec.partition(":")
    params = (parse_params(params_text, spec, "benchmark")
              if params_text.strip() else {})
    return family.strip(), params


def _family_benchmark(spec: str, family_name: str, params: dict,
                      num_qubits: int) -> Benchmark:
    family = FAMILY_REGISTRY.get(family_name)  # KeyError did-you-mean
    if "n" not in params and "n" in family.params:
        params = dict(params, n=num_qubits)
    try:
        bound = inspect.signature(family.builder).bind(**params)
    except TypeError as exc:
        raise ValueError(
            f"bad parameters for benchmark {spec!r}: {exc}; accepted: "
            f"{family.spec_syntax}") from None
    bound.apply_defaults()  # width sees defaulted params too
    return Benchmark(
        name=spec, kind=family.kind,
        num_qubits=family.width(dict(bound.arguments)),
        build=lambda: family.builder(**params),
        description=family.description)


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------
def register_suite(name: str, benchmarks, replace: bool = False) -> None:
    """Register ``"suite:<name>"`` as shorthand for a benchmark list."""
    if name in _SUITES and not replace:
        raise ValueError(f"suite {name!r} is already registered; pass "
                         f"replace=True to override")
    _SUITES[name] = tuple(benchmarks)


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def suite_benchmarks(name: str) -> tuple[str, ...]:
    try:
        return _SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; registered suites: "
                       f"{sorted(_SUITES)}") from None


def expand_benchmarks(names, lenient: bool = False) -> list[str]:
    """Expand ``"suite:*"`` entries in a benchmark list, in order.

    With ``lenient=True`` unknown suites pass through unexpanded instead
    of raising -- the store-read paths (status/report) use this so a
    campaign recorded with a producer-side ``register_suite`` stays
    readable in a process that never registered it.
    """
    out: list[str] = []
    for name in names:
        if name.startswith("suite:"):
            try:
                out.extend(suite_benchmarks(name[len("suite:"):]))
            except KeyError:
                if not lenient:
                    raise
                out.append(name)
        else:
            out.append(name)
    return out


# ----------------------------------------------------------------------
# The paper's fixed Sec. 5.1 suite
# ----------------------------------------------------------------------
def physics_benchmarks(num_qubits: int = 10) -> list[Benchmark]:
    """Ising + XXZ at the paper's three couplings."""
    out = []
    for coupling in PAPER_COUPLINGS:
        out.append(Benchmark(
            name=f"ising_J{coupling:.2f}", kind="physics",
            num_qubits=num_qubits,
            build=(lambda c=coupling, n=num_qubits: ising_model(n, c)),
            description=f"transverse-field Ising chain, J={coupling:g}"))
        out.append(Benchmark(
            name=f"xxz_J{coupling:.2f}", kind="physics",
            num_qubits=num_qubits,
            build=(lambda c=coupling, n=num_qubits: xxz_model(n, c)),
            description=f"XXZ chain, J={coupling:g}"))
    return out


#: molecule -> the two bond lengths (angstrom) of Sec. 5.1.2.
CHEMISTRY_CASES = {
    "H2O": (1.0, 3.0),
    "H6": (1.0, 3.0),
    "LiH": (1.5, 4.5),
}


def chemistry_benchmarks() -> list[Benchmark]:
    """The six molecular benchmarks (10 qubits each)."""
    out = []
    for molecule, lengths in CHEMISTRY_CASES.items():
        for length in lengths:
            out.append(Benchmark(
                name=f"{molecule}_l{length:.1f}", kind="chemistry",
                num_qubits=10,
                build=(lambda m=molecule, l=length: _build_molecule(m, l)),
                description=f"{molecule} at bond length {length:g} A "
                            f"(STO-3G, active space, parity mapping)"))
    return out


def _build_molecule(molecule: str, bond_length: float) -> PauliSum:
    from ..chem.driver import molecular_hamiltonian

    return molecular_hamiltonian(molecule, bond_length).hamiltonian


def paper_benchmarks(num_qubits: int = 10,
                     include_chemistry: bool = True) -> list[Benchmark]:
    """The full Fig. 5 suite at a given physics-model width."""
    suite = physics_benchmarks(num_qubits)
    if include_chemistry:
        suite.extend(chemistry_benchmarks())
    return suite


def get_benchmark(name: str, num_qubits: int = 10) -> Benchmark:
    """Resolve a fixed name, a ``family:key=value,...`` spec, or a bare
    family name into a :class:`Benchmark` (lazily built).

    For family resolutions whose builder takes an ``n`` parameter,
    ``num_qubits`` fills it unless the spec sets ``n`` explicitly -- so
    ``get_benchmark("ising", 6)`` and a campaign's ``qubit_sizes`` axis
    size parameterized benchmarks the same way they size fixed ones.
    """
    if name.startswith("suite:"):
        raise KeyError(
            f"{name!r} is a suite, not a single benchmark; suites expand "
            f"in benchmark *lists* (campaign specs, expand_benchmarks)")
    if ":" in name:
        family, params = parse_benchmark_spec(name)
        return _family_benchmark(name, family, params, num_qubits)
    for bench in paper_benchmarks(num_qubits):
        if bench.name == name:
            return bench
    if name in FAMILY_REGISTRY:
        return _family_benchmark(name, name, {}, num_qubits)
    known = [b.name for b in paper_benchmarks(num_qubits)]
    families = sorted(FAMILY_REGISTRY.names())
    hint = did_you_mean(name, known + families)
    raise KeyError(
        f"unknown benchmark {name!r}{hint}; known: {known}; families "
        f"(parameterize as 'family:key=value,...'): {families}")


# ----------------------------------------------------------------------
# Built-in families and suites
# ----------------------------------------------------------------------
@register_benchmark(name="ising", kind="physics",
                    description="transverse-field Ising chain; "
                                "params n (qubits), J (coupling)")
def _ising_family(n: int = 10, J: float = 1.0) -> PauliSum:
    return ising_model(n, J)


@register_benchmark(name="xxz", kind="physics",
                    description="XXZ Heisenberg chain; params n (qubits), "
                                "J (coupling)")
def _xxz_family(n: int = 10, J: float = 1.0) -> PauliSum:
    return xxz_model(n, J)


@register_benchmark(name="maxcut", kind="physics",
                    description="random Erdos-Renyi MaxCut instance; "
                                "params n (nodes), p (edge prob.), seed, "
                                "weighted (0/1)")
def _maxcut_family(n: int = 8, p: float = 0.5, seed: int = 0,
                   weighted: int = 0) -> PauliSum:
    import numpy as np

    from .maxcut import maxcut_hamiltonian, random_maxcut_instance

    graph = random_maxcut_instance(n, p, np.random.default_rng(seed),
                                   weighted=bool(weighted))
    return maxcut_hamiltonian(graph)


@register_benchmark(name="molecule", kind="chemistry", num_qubits=10,
                    description="molecular Hamiltonian (STO-3G, active "
                                "space, parity mapping); params name "
                                "(H2O/H6/LiH), l (bond length, angstrom)")
def _molecule_family(name: str = "H2O", l: float = 1.0) -> PauliSum:  # noqa: E741
    return _build_molecule(name, float(l))


register_suite("physics", tuple(b.name for b in physics_benchmarks()))
register_suite("chemistry", tuple(f"{m}_l{length:.1f}"
                                  for m, lengths in CHEMISTRY_CASES.items()
                                  for length in lengths))
register_suite("paper", _SUITES["physics"] + _SUITES["chemistry"])
