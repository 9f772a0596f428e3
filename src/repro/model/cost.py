"""The abstract data type "cost".

"Cost is an abstract data type for the optimizer generator; therefore,
the optimizer implementor can choose cost to be a number (e.g., estimated
elapsed time), a record (e.g., estimated CPU time and I/O count), or any
other type.  Cost arithmetic and comparisons are performed by invoking
functions associated with the abstract data type 'cost'."  (paper,
Section 2.2)

Three implementations are bundled:

* :class:`ScalarCost` — one number (estimated elapsed time).
* :class:`CpuIoCost` — a (CPU, I/O) record compared through a weighted
  total, the System R style the paper cites.
* :class:`ResourceCost` — a CPU/I/O/memory record whose comparison weight
  for I/O depends on available main memory, the paper's "even a function,
  e.g., of the amount of available main memory".

All cost types share saturating arithmetic with :data:`INFINITE_COST`,
which the search engine uses as the initial branch-and-bound limit.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass

from repro.errors import ModelSpecError

__all__ = [
    "Cost",
    "ScalarCost",
    "CpuIoCost",
    "ResourceCost",
    "InfiniteCost",
    "INFINITE_COST",
]


class Cost:
    """Base class for cost values.

    Subclasses must implement ``total`` (a float used for comparisons),
    ``__add__`` and ``__sub__`` against their own type.  Comparisons
    against :data:`INFINITE_COST` work for every subclass.

    Comparisons read the cached ``_total`` float; the bundled cost types
    precompute it at construction and :data:`INFINITE_COST` pins it to
    ``+inf``, which makes the infinite-handling branches fall out of plain
    float comparison.  Subclasses defined outside this module need no
    cache: ``__getattr__`` lazily answers ``_total`` from ``total()``.
    """

    __slots__ = ()

    is_infinite = False
    _total: float  # cached total(); annotation only — filled per subclass

    def total(self) -> float:
        """A single comparable number summarizing this cost."""
        raise NotImplementedError

    def __getattr__(self, name: str) -> float:
        if name == "_total":
            return self.total()
        raise AttributeError(name)

    # Comparison operators are shared; ``_total`` is ``+inf`` for the
    # infinite cost, so IEEE float ordering gives the right answer for
    # every finite/infinite combination.

    def __lt__(self, other: "Cost") -> bool:
        return self._total < other._total

    def __le__(self, other: "Cost") -> bool:
        return self._total <= other._total

    def __gt__(self, other: "Cost") -> bool:
        return other._total < self._total

    def __ge__(self, other: "Cost") -> bool:
        return other._total <= self._total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cost):
            return NotImplemented
        return self._total == other._total

    def __hash__(self):
        return hash(self.total())


class InfiniteCost(Cost):
    """The unreachable upper bound; arithmetic saturates."""

    _instance = None
    _total = float("inf")
    is_infinite = True

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def total(self) -> float:
        """Infinite cost summarizes to +inf."""
        return float("inf")

    def __add__(self, other: Cost) -> Cost:
        return self

    def __radd__(self, other: Cost) -> Cost:
        return self

    def __sub__(self, other: Cost) -> Cost:
        return self

    def __hash__(self):
        return hash(float("inf"))

    def __repr__(self) -> str:
        return "INFINITE_COST"

    def __str__(self) -> str:
        return "inf"


INFINITE_COST = InfiniteCost()


@dataclass(frozen=True, eq=False)
class ScalarCost(Cost):
    """Cost as one number, e.g. estimated elapsed seconds."""

    value: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "_total", self.value)

    def total(self) -> float:
        """The scalar value itself."""
        return self.value

    def __add__(self, other: Cost) -> Cost:
        if other.is_infinite:
            return INFINITE_COST
        if not isinstance(other, ScalarCost):
            raise ModelSpecError(
                f"cannot add ScalarCost and {type(other).__name__}"
            )
        return ScalarCost(self.value + other.value)

    def __sub__(self, other: Cost) -> Cost:
        if other.is_infinite:
            raise ModelSpecError("cannot subtract an infinite cost")
        if not isinstance(other, ScalarCost):
            raise ModelSpecError(
                f"cannot subtract {type(other).__name__} from ScalarCost"
            )
        return ScalarCost(self.value - other.value)

    def __hash__(self):
        return hash(self._total)

    def __str__(self) -> str:
        return f"{self.value:.3f}"


class CpuIoCost(Cost):
    """Cost as a (CPU, I/O) record, compared by a weighted total.

    The weight models how many CPU cost units one I/O is worth; the
    relational model's cost functions express CPU in per-tuple units and
    I/O in page accesses, so the default weight makes one page access as
    expensive as processing one page worth of tuples several times over —
    the I/O-dominant regime of 1993 hardware.

    A frozen value like the dataclass costs, but slotted and filled
    through its slot descriptors: the costing loop builds one per
    candidate, so construction is kept to four C-level stores.
    """

    __slots__ = ("cpu", "io", "io_weight", "_total")

    cpu: float
    io: float
    io_weight: float

    def __init__(self, cpu: float = 0.0, io: float = 0.0, io_weight: float = 100.0):
        _set_cpu(self, cpu)
        _set_io(self, io)
        _set_io_weight(self, io_weight)
        _set_total(self, cpu + io * io_weight)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), (self.cpu, self.io, self.io_weight))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(cpu={self.cpu!r}, io={self.io!r}, "
            f"io_weight={self.io_weight!r})"
        )

    def total(self) -> float:
        """CPU plus weighted I/O."""
        return self._total

    def __add__(self, other: Cost) -> Cost:
        if other.is_infinite:
            return INFINITE_COST
        if not isinstance(other, CpuIoCost):
            raise ModelSpecError(f"cannot add CpuIoCost and {type(other).__name__}")
        return CpuIoCost(self.cpu + other.cpu, self.io + other.io, self.io_weight)

    def __sub__(self, other: Cost) -> Cost:
        if other.is_infinite:
            raise ModelSpecError("cannot subtract an infinite cost")
        if not isinstance(other, CpuIoCost):
            raise ModelSpecError(
                f"cannot subtract {type(other).__name__} from CpuIoCost"
            )
        return CpuIoCost(self.cpu - other.cpu, self.io - other.io, self.io_weight)

    def __hash__(self):
        return hash(self._total)

    def __str__(self) -> str:
        return f"cpu={self.cpu:.1f} io={self.io:.1f} (total {self.total():.1f})"


_set_cpu = CpuIoCost.cpu.__set__  # type: ignore[attr-defined]
_set_io = CpuIoCost.io.__set__  # type: ignore[attr-defined]
_set_io_weight = CpuIoCost.io_weight.__set__  # type: ignore[attr-defined]
_set_total = CpuIoCost._total.__set__  # type: ignore[attr-defined]


@dataclass(frozen=True, eq=False)
class ResourceCost(Cost):
    """Cost as a CPU/I/O/memory record with a memory-dependent I/O weight.

    When plenty of main memory is available (``memory_bytes`` large
    relative to ``working_set``), intermediate results stay cached and
    I/O is discounted; when memory is scarce, I/O costs full price.  This
    demonstrates the paper's point that cost may be "a function, e.g.,
    of the amount of available main memory".
    """

    cpu: float = 0.0
    io: float = 0.0
    working_set: float = 0.0
    memory_bytes: float = 1 << 20
    base_io_weight: float = 100.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "_total", self.cpu + self.io * self._io_weight())

    def _io_weight(self) -> float:
        if self.memory_bytes <= 0:
            return self.base_io_weight
        pressure = min(1.0, self.working_set / self.memory_bytes)
        # Fully cached → 10% of the nominal I/O price; fully spilled → 100%.
        return self.base_io_weight * (0.1 + 0.9 * pressure)

    def total(self) -> float:
        """CPU plus memory-pressure-weighted I/O."""
        return self._total

    def __add__(self, other: Cost) -> Cost:
        if other.is_infinite:
            return INFINITE_COST
        if not isinstance(other, ResourceCost):
            raise ModelSpecError(
                f"cannot add ResourceCost and {type(other).__name__}"
            )
        return ResourceCost(
            self.cpu + other.cpu,
            self.io + other.io,
            max(self.working_set, other.working_set),
            self.memory_bytes,
            self.base_io_weight,
        )

    def __sub__(self, other: Cost) -> Cost:
        if other.is_infinite:
            raise ModelSpecError("cannot subtract an infinite cost")
        if not isinstance(other, ResourceCost):
            raise ModelSpecError(
                f"cannot subtract {type(other).__name__} from ResourceCost"
            )
        return ResourceCost(
            self.cpu - other.cpu,
            self.io - other.io,
            self.working_set,
            self.memory_bytes,
            self.base_io_weight,
        )

    def __hash__(self):
        return hash(self._total)

    def __str__(self) -> str:
        return (
            f"cpu={self.cpu:.1f} io={self.io:.1f} ws={self.working_set:.0f}B "
            f"(total {self.total():.1f})"
        )
