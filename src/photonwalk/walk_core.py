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

# Every tolerance in the package, one name per value.  State checks scale with the
# state's norm.  NORM_TOL >= MATCH_TOL, or a step that WalkStep accepts fails its own
# norm check; FIDELITY_TOL compares two builds from exact coins, so it is sized by
# the worst deviation that verify's circuits show (4.4e-16).
EXACT_TOL = 1e-15  # entries that must be exactly 0 or 1
MATCH_TOL = 1e-12  # unitarity, exact matrix patterns, amplitudes read as zero
NORM_TOL = 1e-10  # norms, probabilities, operators equal up to a global phase
FIDELITY_TOL = 1e-13  # compiled optics against the walk

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
    _check_unitary(coins, "coin {}: operator".format)
    return coins


def _check_unitary(ms, name) -> np.ndarray:
    """Each (N, d, d) matrix's largest |m^dagger m - I| entry, cast to complex: closed form
    for 2x2, else a batched Gram.  The first over MATCH_TOL raises WalkError, named
    ``name(i)``, with its deviation (NaN if non-finite)."""
    ms = np.asarray(ms, dtype=complex)
    n, dim = len(ms), ms.shape[-1]
    if dim == 2:
        with np.errstate(all="ignore"):  # a coin's inf or huge entry is a deviation, not a warning
            a, b, c, d = ms.reshape(n, 4).T
            off = np.abs(a.conj() * b + c.conj() * d)
            col0, col1 = np.abs(a) ** 2 + np.abs(c) ** 2, np.abs(b) ** 2 + np.abs(d) ** 2
            devs = np.maximum(np.maximum(off, np.abs(col0 - 1)), np.abs(col1 - 1))
    else:  # a fold's running products, of checked steps: bounded, so no errstate
        g = ms.conj().transpose(0, 2, 1) @ ms
        g = g.reshape(n, -1)
        g[:, :: dim + 1] -= 1  # the diagonal alone
        devs = np.abs(g).max(axis=1)
    for i, dev in enumerate(devs.tolist()):
        if not dev <= MATCH_TOL:  # NaN fails; an inf entry fails as inf or NaN
            dev = dev if np.isfinite(ms[i]).all() else math.nan
            raise WalkError(f"{name(i)} is not unitary (max deviation {dev:.3e})")
    return devs


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
            c.setflags(write=False)
            coins[int(l)] = c  # np.int64 -> int, as Shift
        if coins:
            _check_unitary(list(coins.values()), lambda i: f"coin at position {list(coins)[i]}")
        self._seal(coins)

    @classmethod
    def _from_checked(cls, coins: dict, shift: Optional[Shift], global_phase: float) -> "WalkStep":
        """Trusted path: int positions to read-only 2x2 coins that the caller checked are
        unitary (``_check_unitary``), a Shift or None, and a finite float phase."""
        step = object.__new__(cls)
        step.__dict__.update(shift=shift, global_phase=global_phase, tag=None)
        step._seal(coins)
        return step

    def _seal(self, coins: dict) -> None:
        object.__setattr__(self, "coin_map", MappingProxyType(coins))
        # Coins compare by bytes, so equal blocks built apart compare fast.
        content = tuple((l, c.dtype.str, c.tobytes()) for l, c in coins.items())
        object.__setattr__(self, "_key", (self.tag, self.shift, self.global_phase, content))
        object.__setattr__(self, "_hash", hash(self._key))  # once, not per memo lookup

    def __eq__(self, other) -> bool:
        return isinstance(other, WalkStep) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, eq=False)
class WalkState:
    """Amplitude vector over coin x position, coin-major flat index.

    The constructor checks the length (``2 * size``) and that every amplitude
    is finite, and stores a read-only complex copy; it does not check or fix
    the norm, which ``norm()`` measures once.  A state compares and hashes by
    its topology and its amplitudes' bytes.
    """

    topology: Topology
    amplitudes: np.ndarray
    _measured = None  # the norm, once measured; not a field

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
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _from_checked(cls, topology: Topology, amps: np.ndarray, norm=None) -> "WalkState":
        """Trusted path: the caller's own complex vector, past its norm check, made
        read-only, and its ``_norm`` if the caller measured it."""
        amps.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(topology=topology, amplitudes=amps, _measured=norm)
        return state

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
        if self._measured is None:  # a zero state keeps its 0.0
            object.__setattr__(self, "_measured", _norm(self.amplitudes))
        return self._measured

    def _content(self) -> tuple:
        return self.topology, self.amplitudes.dtype.str, self.amplitudes.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, WalkState) and self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D complex vector, the same two dot products
    without its dispatch; ``np.vdot`` sets no overflow warning, so a norm that
    overflows is ``inf`` for the caller's norm check."""
    r, i = v.real, v.imag
    return math.sqrt(np.vdot(r, r) + np.vdot(i, i))


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
            raise WalkError("shift requires at least two positions")
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
    Every running product must be unitary, checked after the fold; errors name the step.
    """
    m = np.eye(topology.dim, dtype=complex)
    products = []
    try:
        for step in steps:
            m = _kernel_matrix(evolve, topology.size, step).dot(m)
            products.append(m)
    except WalkError as exc:  # raised by the step after the last product
        raise type(exc)(f"step {len(products)}: {exc}") from exc
    finally:  # a product that failed before a step raised is the fold's first error
        if products:
            _check_unitary(products, "step {}: operator".format)
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
                if edge is not None and abs(view[step.shift.coin, edge[1]]) > MATCH_TOL * norm:
                    raise BoundaryViolation(
                        "shift would move amplitude off the open line at "
                        f"position {edge[0]}"
                    )
            new_norm = _norm(amps)
            if not abs(new_norm - norm) <= NORM_TOL * norm:  # NaN fails
                raise WalkError("step did not preserve the state norm")
            norm = new_norm
        except WalkError as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
    return WalkState._from_checked(topology, amps, norm)


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
