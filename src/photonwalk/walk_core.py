"""Operator algebra and state evolution for 1D coin-based discrete-time quantum walks.

The walker lives on coin (2-level) x position space over a finite graph:
either an open line or a closed cycle of vertices.  Amplitudes use the flat
coin-major index ``c * size + l`` throughout; every module in this package
shares that convention.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

# Every tolerance in the package, one name per value.
EXACT_TOL = 1e-15  # entries that must be exactly 0 or 1
MATCH_TOL = 1e-12  # unitarity, exact matrix patterns, amplitudes read as zero
NORM_TOL = 1e-10  # norms, probabilities, operators equal up to a global phase
FIDELITY_TOL = 1e-9  # compiled optics against the walk

OPEN_LINE = "open_line"
CLOSED_CYCLE = "closed_cycle"


class WalkError(Exception):
    """Base class for walk construction and evolution errors."""


class BoundaryViolation(WalkError):
    """A shift on an open line tried to move amplitude off the graph."""


class DimensionMismatch(WalkError):
    """Operands act on spaces of different dimension."""


def build_coins(angles) -> np.ndarray:
    """(N, 2, 2) coins for (N, 4) rows of (p, q, r, theta), unitarity-checked in one
    pass; the first failing row is named with its deviation, NaN for a non-finite angle."""
    g, eq, er, et = np.exp(1j * np.asarray(angles, dtype=float).reshape(-1, 4).T)
    cos, sin = et.real, et.imag
    entries = np.stack([eq * cos, er * sin, -er.conj() * sin, eq.conj() * cos], axis=1)
    coins = (g[:, None] * entries).reshape(-1, 2, 2)
    devs = np.max(np.abs(coins.conj().transpose(0, 2, 1) @ coins - np.eye(2)), axis=(1, 2))
    bad = np.flatnonzero(~(devs <= MATCH_TOL))  # NaN fails
    if bad.size:
        row = bad[0]
        raise WalkError(f"coin {row}: operator is not unitary (max deviation {devs[row]:.3e})")
    return coins


@dataclass(frozen=True)
class Topology:
    """Finite 1D position graph: an open line or a closed cycle of vertices."""

    kind: str
    size: int

    def __post_init__(self) -> None:
        if self.kind not in (OPEN_LINE, CLOSED_CYCLE):
            raise ValueError(f"unknown topology kind: {self.kind!r}")
        if not (_is_int(self.size) and self.size >= 1):  # 2.0 would give a float dim
            raise ValueError(f"topology size must be a positive int, got {self.size!r}")
        object.__setattr__(self, "size", int(self.size))  # np.int64 -> int, for JSON

    @property
    def dim(self) -> int:
        return 2 * self.size


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    """An int or float with a finite float64 value (not 10**400); a float32 angle gives a
    stage unitary only to ~1e-8."""
    return (_is_int(x) or isinstance(x, float)) and -sys.float_info.max <= x <= sys.float_info.max


def _tuple_of(items, what: str) -> tuple:
    """``tuple(items)``, or a one-line ValueError naming ``what`` if it is not iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise ValueError(f"{what} must be iterable, got {type(items).__name__}") from None


@dataclass(frozen=True)
class Shift:
    """Coin-conditioned position move: direction +1 (right) or -1 (left)."""

    coin: int
    direction: int

    def __post_init__(self) -> None:
        # bool and float labels compare equal to 0 and 1 but do not index a row.
        if not (_is_int(self.coin) and self.coin in (0, 1)):
            raise ValueError("shift coin label must be 0 or 1")
        if not (_is_int(self.direction) and self.direction in (-1, 1)):
            raise ValueError("shift direction must be +1 or -1")
        object.__setattr__(self, "coin", int(self.coin))  # np.int64 -> int, as Topology.size
        object.__setattr__(self, "direction", int(self.direction))


def s_plus(b: int) -> Shift:
    """Shift moving position l -> l+1 when the coin is |b>."""
    return Shift(coin=b, direction=+1)


def s_minus(a: int) -> Shift:
    """Shift moving position l -> l-1 when the coin is |a>."""
    return Shift(coin=a, direction=-1)


def _forbidden_edge(shift: Shift, topology: Topology) -> Optional[tuple]:
    """(source, landing) positions of the wrap edge a shift may not take, if any."""
    # On a closed cycle every move follows an edge.  On an open line the
    # modular wrap is only legal when the wrap target is actually adjacent,
    # which happens exactly for size 2 (a single edge traversed either way).
    if topology.kind == CLOSED_CYCLE or topology.size <= 2:
        return None
    if shift.direction > 0:
        return topology.size - 1, 0
    return 0, topology.size - 1


@dataclass(frozen=True, eq=False)
class WalkStep:
    """One evolution step: position-dependent coin, optional shift, phase.

    ``coin_map`` assigns a 2x2 unitary to position indices; missing positions
    default to identity.  ``tag`` is a structural label consumed by the
    photonic compiler (e.g. marking a position-Hadamard block).  A step is a
    value: it holds read-only copies of the coins and compares by content.
    Each coin is checked here, once: its position must be an int (a numpy int
    is stored as ``int``), and the coin a numeric 2x2 unitary, else WalkError.
    """

    coin_map: Mapping[int, np.ndarray] = field(default_factory=dict)
    shift: Optional[Shift] = None
    global_phase: float = 0.0
    tag: Optional[str] = None
    _key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Type names, not reprs: an array's repr spans lines.
        if not isinstance(self.coin_map, Mapping):
            raise ValueError(f"coin map must be a mapping, got {type(self.coin_map).__name__}")
        if not (self.shift is None or isinstance(self.shift, Shift)):
            raise ValueError(f"shift must be None or a Shift, got {type(self.shift).__name__}")
        if not (self.tag is None or isinstance(self.tag, str)):
            raise ValueError(f"tag must be None or a str, got {type(self.tag).__name__}")
        if not _is_finite_real(self.global_phase):
            phase = self.global_phase
            raise ValueError(f"global phase must be a finite int or float, got {phase!r}")
        coins = {}
        for l, coin in self.coin_map.items():
            if not _is_int(l):  # True and 2.0 would hash like 1 and 2
                raise WalkError(f"coin position {l!r} is not an int")
            c = np.array(coin)
            if c.shape != (2, 2):
                raise WalkError(f"coin at position {l} has shape {c.shape}, not (2, 2)")
            if c.dtype.kind not in "biufc":  # strings, None, object arrays
                raise WalkError(f"coin at position {l} is not numeric")
            dev = _unitary_deviation(c)
            if not dev <= MATCH_TOL:  # NaN fails
                raise WalkError(f"coin at position {l} is not unitary (max deviation {dev:.3e})")
            c.setflags(write=False)
            coins[int(l)] = c  # np.int64 -> int, as Shift
        object.__setattr__(self, "coin_map", MappingProxyType(coins))
        # Coins compare by bytes, so equal blocks built apart compare fast.
        content = tuple((l, c.dtype.str, c.tobytes()) for l, c in coins.items())
        object.__setattr__(self, "_key", (self.tag, self.shift, self.global_phase, content))
        object.__setattr__(self, "_hash", hash(self._key))  # once, not per memo lookup

    def __eq__(self, other) -> bool:
        return isinstance(other, WalkStep) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class WalkState:
    """Amplitude vector over coin x position, coin-major flat index.

    The constructor checks the length (``2 * size``) and that every amplitude
    is finite, and stores a read-only complex copy; it does not check or fix
    the norm.
    """

    topology: Topology
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.topology, Topology):
            raise ValueError(f"topology must be a Topology, got {type(self.topology).__name__}")
        try:
            amps = np.asarray(self.amplitudes, dtype=complex)
        except (TypeError, ValueError, OverflowError):  # a dict, "x", 10**400
            raise ValueError("amplitudes must be complex numbers") from None
        if amps.shape != (self.topology.dim,):
            raise DimensionMismatch(
                f"expected {self.topology.dim} amplitudes, got {amps.shape}"
            )
        if not all(np.isfinite(amps).tolist()):  # a third of ndarray.all's cost at this size
            raise ValueError("amplitudes must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, topology: Topology, coin: int, position: int) -> "WalkState":
        # bool and out-of-range values would index another amplitude silently.
        if not (_is_int(coin) and coin in (0, 1)):
            raise ValueError(f"basis coin must be 0 or 1, got {coin!r}")
        if not (_is_int(position) and 0 <= position < topology.size):
            raise ValueError(
                f"basis position must be an int in [0, {topology.size}), got {position!r}"
            )
        amps = np.zeros(topology.dim, dtype=complex)
        amps[coin * topology.size + position] = 1.0
        return cls(topology, amps)

    def norm(self) -> float:
        return _norm(self.amplitudes)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D complex vector, the same two dot products
    without its dispatch."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _unitary_deviation(m: np.ndarray) -> float:
    """Largest entry of |m^dagger m - I|, NaN if m holds a NaN; closed form for 2x2."""
    if m.shape == (2, 2):
        a, b, c, d = m.ravel().tolist()
        # The off-diagonal term goes first: it is NaN whenever an entry is,
        # and max() keeps a NaN first argument.
        return max(
            abs(a.conjugate() * b + c.conjugate() * d),
            abs(abs(a) ** 2 + abs(c) ** 2 - 1),
            abs(abs(b) ** 2 + abs(d) ** 2 - 1),
        )
    d = m.conj().T.dot(m)
    d.reshape(-1)[:: len(d) + 1] -= 1  # the diagonal alone: z - 0 is exact anyway
    return float(np.abs(d).max())


def _check_unitary(m: np.ndarray) -> None:
    dev = _unitary_deviation(m)
    if not dev <= MATCH_TOL:  # NaN fails
        raise WalkError(f"operator is not unitary (max deviation {dev:.3e})")


def evolve(amps: np.ndarray, step: WalkStep) -> None:
    """Apply one step in place to ``amps``, a (2, size, ...) coin x position view.

    The state path passes one vector; the operator path passes the identity
    columns, shape (2, size, 2 * size).  ``WalkStep`` has checked its coins; a
    coin position outside ``[0, size)`` raises WalkError here, and no boundary
    or norm check is made.
    """
    size = amps.shape[1]
    bad = [l for l in step.coin_map if not 0 <= l < size]
    if bad:
        raise WalkError(f"coin position {bad[0]} outside a topology of size {size}")
    for l, c in step.coin_map.items():
        amps[:, l] = c.dot(amps[:, l])
    if step.shift is not None:
        if size < 2:
            raise ValueError("shift requires at least two positions")
        row = amps[step.shift.coin]
        row[...] = row[(np.arange(size) - step.shift.direction) % size]  # np.roll's gather
    if step.global_phase != 0.0:
        amps *= np.exp(1j * step.global_phase)


@functools.lru_cache(maxsize=384)
def _kernel_matrix(kernel, size: int, item) -> np.ndarray:
    """Read-only matrix of one walk step or optical stage: the in-place ``kernel``
    on the identity columns, built once per distinct (kernel, size, item) and
    process; an item the kernel rejects raises on every call."""
    m = np.eye(2 * size, dtype=complex)
    kernel(m.reshape(2, size, 2 * size), item)
    m.setflags(write=False)
    return m


def program_operator(steps: Sequence[WalkStep], topology: Topology) -> np.ndarray:
    """Operator of a whole program: the product of its step matrices, a new array.

    Shifts on an open line include the wrap edge, so the operator equals
    ``run_program`` on every state that ``run_program`` accepts; ``evolve``
    reads only the size, so the step matrices are keyed by size, not kind.
    """
    m = np.eye(topology.dim, dtype=complex)
    for step in steps:
        m = _kernel_matrix(evolve, topology.size, step).dot(m)
        _check_unitary(m)
    return m


def run_program(state: WalkState, steps: Sequence[WalkStep]) -> WalkState:
    """Fold the steps over the state in place, tagging errors with the step index.

    Every step must preserve the norm; on an open line no amplitude may
    cross the wrap edge (BoundaryViolation).
    """
    topology = state.topology
    amps = state.amplitudes.copy()
    view = amps.reshape(2, topology.size)
    norm = state.norm()
    for i, step in enumerate(steps):
        try:
            # Not _kernel_matrix: a matrix-vector product leaves ~1e-17 where evolve gives 0.
            evolve(view, step)
            if step.shift is not None:
                edge = _forbidden_edge(step.shift, topology)
                # A shift is a permutation, so only amplitude that crossed the
                # forbidden edge can sit on its landing site afterwards.
                if edge is not None and abs(view[step.shift.coin, edge[1]]) > MATCH_TOL:
                    raise BoundaryViolation(
                        "shift would move amplitude off the open line at "
                        f"position {edge[0]}"
                    )
            new_norm = _norm(amps)
            if not abs(new_norm - norm) <= NORM_TOL:  # NaN fails
                raise WalkError("step did not preserve the state norm")
            norm = new_norm
        except WalkError as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
    return WalkState(topology, amps)


def measure_position(state: WalkState) -> np.ndarray:
    """P(l) = sum over coins of |amplitude(c, l)|^2."""
    n = state.topology.size
    probs = np.abs(state.amplitudes) ** 2
    return probs[:n] + probs[n:]


def measure_joint(state: WalkState) -> np.ndarray:
    """Per-(coin, position) probabilities as a (2, size) array."""
    n = state.topology.size
    return (np.abs(state.amplitudes) ** 2).reshape(2, n)


def state_to_json(state: WalkState) -> dict:
    return {
        "kind": state.topology.kind,
        "size": state.topology.size,
        "amplitudes": [
            [float(z.real), float(z.imag)] for z in state.amplitudes
        ],
    }
