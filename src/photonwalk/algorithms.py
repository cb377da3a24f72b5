"""Deutsch-Jozsa and Bernstein-Vazirani drivers on the quantum walk substrate.

Two execution schemes are supported:

* with-aux   -- walk on a closed 4-cycle; the coin is the auxiliary qubit and
                the four vertices, Gray-labeled 00, 01, 11, 10, are the two
                working qubits.
* no-aux     -- walk on a 2-vertex open line; the coin encodes the first input
                bit and the position the second.

Each driver is cross-checked against a brute-force dense reference that never
touches walk operators.
"""

from __future__ import annotations

import enum
import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .walk_core import (
    CLOSED_CYCLE,
    MATCH_TOL,
    NORM_TOL,
    OPEN_LINE,
    DimensionMismatch,
    Topology,
    WalkError,
    WalkState,
    WalkStep,
    _is_int,
    _norm,
    measure_joint,
    measure_position,  # unused here; perfbench's fault injection patches it with measure_joint
    program_operator,
    run_program,
    s_minus,
    s_plus,
)

WITH_AUX = "with-aux"
NO_AUX = "no-aux"
SCHEMES = (WITH_AUX, NO_AUX)

CYCLE4 = Topology(CLOSED_CYCLE, 4)
LINE2 = Topology(OPEN_LINE, 2)


def scheme_topology(scheme: str) -> Topology:
    return _scheme(scheme).topology


# Vertex -> working-qubit label around the 4-cycle (Gray code, so a single
# shift flips a single label bit).
CYCLE_LABELS = ("00", "01", "11", "10")

# Step tags consumed by the photonic compiler.
TAG_PREP = "prep"
TAG_COIN_HADAMARD = "coin_hadamard"
TAG_POSITION_HADAMARD = "position_hadamard"
TAG_ORACLE = "oracle"

# Coin alphabet: exact matrices.
COIN_IDENTITY = np.eye(2)
COIN_X = np.array([[0.0, 1.0], [1.0, 0.0]])
COIN_PHASE_FLIP_1 = np.diag([1.0, -1.0])   # phase on coin |1>
COIN_PHASE_FLIP_0 = np.diag([-1.0, 1.0])   # phase on coin |0>
COIN_NEG_IDENTITY = -np.eye(2)             # overall pi phase at one position
COIN_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


class PromiseViolation(Exception):
    """The input function is neither constant nor balanced."""


class FnClass(enum.Enum):
    CONSTANT = "constant"
    BALANCED = "balanced"
    NEITHER = "neither"


@dataclass(frozen=True)
class BooleanFn:
    """Truth table of f: {0,1}^n -> {0,1}; x1 is the most significant bit."""

    n: int
    table: bytes

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError("need at least one input bit")
        try:  # bytes are read as they are; an iterator is read once; an array yields its entries
            table = self.table if isinstance(self.table, bytes) else tuple(self.table)
        except TypeError:  # not iterable
            raise ValueError("truth table entries must be 0 or 1") from None
        try:
            try:  # one pass checks int, bool and numpy-int entries and becomes the table
                raw = bytes(table)  # ValueError for an int outside 0..255
            except TypeError:  # 0.5, "1" or [1]: compare the raw entries before int() coerces them
                if not set(table) <= {0, 1}:  # TypeError for an unhashable entry
                    raise ValueError
                raw = bytes(map(int, table))
            if raw.translate(None, b"\x00\x01"):  # a byte other than 0 or 1
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError("truth table entries must be 0 or 1") from None
        # Compare bit lengths first, so a huge n never builds 2**n.
        if len(raw).bit_length() != self.n + 1 or len(raw) != 2**self.n:
            want = 2**self.n if self.n < 64 else f"2**{self.n}"
            raise ValueError(f"truth table must have {want} entries, got {len(raw)}")
        object.__setattr__(self, "table", raw)  # f(x) is table[x], an int, whatever kind came in

    def value(self, x: int) -> int:
        if not (_is_int(x) and 0 <= x < len(self.table)):  # -1 would index from the end
            raise ValueError(f"x must be in [0, 2**{self.n}), got {x!r}")
        return self.table[x]


def classify_fn(f: BooleanFn) -> FnClass:
    ones = f.table.count(1)
    if ones in (0, len(f.table)):
        return FnClass.CONSTANT
    if 2 * ones == len(f.table):
        return FnClass.BALANCED
    return FnClass.NEITHER


def _fn_from_rule(rule: Callable[[int, int], int]) -> BooleanFn:
    return BooleanFn(2, tuple(rule(x1, x2) for x1 in (0, 1) for x2 in (0, 1)))


_CATALOGUE = (
    ("i", _fn_from_rule(lambda x1, x2: 0)),
    ("ii", _fn_from_rule(lambda x1, x2: 1)),
    ("iii", _fn_from_rule(lambda x1, x2: x1)),
    ("iv", _fn_from_rule(lambda x1, x2: x2)),
    ("v", _fn_from_rule(lambda x1, x2: 1 - x1)),
    ("vi", _fn_from_rule(lambda x1, x2: 1 - x2)),
    ("vii", _fn_from_rule(lambda x1, x2: x1 ^ x2)),
    ("viii", _fn_from_rule(lambda x1, x2: 1 - (x1 ^ x2))),
)
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # f(x) -> 1 - f(x), one byte per entry


def two_bit_catalogue() -> list:
    """The eight constant-or-balanced two-bit functions, in roman-numeral order."""
    return list(_CATALOGUE)


def hidden_string_fn(s: str) -> BooleanFn:
    """The dot-product function f(x) = x . s for a hidden bit string."""
    if not isinstance(s, str) or not s or any(ch not in "01" for ch in s):
        raise ValueError(f"hidden string must be nonempty bits, got {s!r}")
    if len(s) > 32:  # 33 bits would be a table of 2^33 bytes, 8 GiB
        raise ValueError(f"hidden string must have at most 32 bits, got {len(s)}")
    # Parity of x & s, doubled from the last bit of s: setting a bit of x that s has flips it.
    table = b"\x00"
    for bit in reversed(s):
        table += table.translate(_FLIP) if bit == "1" else table
    return BooleanFn(len(s), table)


# Hidden string -> catalogue name of the matching dot-product function.
BV_STRINGS = (("00", "i"), ("01", "iv"), ("10", "iii"), ("11", "vii"))


def build_oracle_with_aux(f: BooleanFn) -> tuple:
    """Oracle as a single position-dependent coin step on the 4-cycle.

    Applies a coin X (flipping the auxiliary qubit) at every vertex whose
    working-qubit label satisfies f.
    """
    if f.n != 2:
        raise ValueError("with-aux walk oracle is defined for 2-bit functions")
    coin_map = {
        v: COIN_X
        for v, lab in enumerate(CYCLE_LABELS)
        if f.value(int(lab, 2)) == 1
    }
    return (WalkStep(coin_map, tag=TAG_ORACLE),)


def build_oracle_no_aux(f: BooleanFn) -> tuple:
    """Phase oracle as a single diagonal coin step on the 2-vertex line.

    At position x2 the coin picks up diag((-1)^f(0,x2), (-1)^f(1,x2)); the
    induced operator multiplies |x1 x2> by (-1)^f(x1,x2).
    """
    if f.n != 2:
        raise ValueError("no-aux walk oracle is defined for 2-bit functions")
    coin_map = {}
    for x2 in (0, 1):
        d = np.diag(
            [(-1.0) ** f.value(0 * 2 + x2), (-1.0) ** f.value(1 * 2 + x2)]
        )
        coin_map[x2] = d
    return (WalkStep(coin_map, tag=TAG_ORACLE),)


def reference_circuit_oracle(f: BooleanFn) -> np.ndarray:
    """Ground-truth standard oracle |x>|y> -> |x>|y xor f(x)> as a permutation."""
    dim = 2 ** (f.n + 1)
    m = np.zeros((dim, dim), dtype=complex)
    for x in range(2**f.n):
        for y in (0, 1):
            m[x * 2 + (y ^ f.value(x)), x * 2 + y] = 1.0
    return m


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = NORM_TOL) -> bool:
    """True iff a = e^{i phi} b, taking the phase at a's largest entry."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    a, b = a.ravel(), b.ravel()
    i = int(np.abs(a).argmax())
    if abs(a[i]) <= MATCH_TOL:
        return bool(np.abs(b).max() <= tol)
    if abs(b[i]) <= MATCH_TOL:
        return False
    phase = a[i] / b[i]
    phase /= abs(phase)
    return bool(np.abs(a - phase * b).max() <= tol)


def with_aux_index_map() -> np.ndarray:
    """Permutation p with circuit_index = p[walk_index].

    Walk index is coin-major (c, vertex); circuit basis is |x1 x2>|aux> with
    aux = coin and |x1 x2> the vertex label.
    """
    return np.array([int(lab, 2) * 2 + c for c in (0, 1) for lab in CYCLE_LABELS])


def walk_to_circuit_operator(m: np.ndarray) -> np.ndarray:
    """Conjugate a with-aux walk-space operator into the circuit basis."""
    q = np.argsort(with_aux_index_map())  # walk_index = q[circuit_index]
    return np.asarray(m, dtype=complex)[np.ix_(q, q)]


def _cx_coin_to_cycle_bit(first_shift, second_shift) -> list:
    # Flip one Gray-label bit of the cycle position iff the coin is |1>:
    # a coin-conditioned shift conjugated by coin flips at even vertices
    # turns the cyclic move into the required pairwise exchange.
    x02 = {0: COIN_X, 2: COIN_X}
    return [
        WalkStep(x02, first_shift, tag=TAG_POSITION_HADAMARD),
        WalkStep(x02, second_shift, tag=TAG_POSITION_HADAMARD),
        WalkStep(x02, tag=TAG_POSITION_HADAMARD),
    ]


def _h_on_cycle_bit(cx_coin_to_bit: list, cx_bit_to_coin: WalkStep) -> list:
    swap = cx_coin_to_bit + [cx_bit_to_coin] + cx_coin_to_bit
    h_coin = WalkStep(dict.fromkeys(range(4), COIN_HADAMARD), tag=TAG_POSITION_HADAMARD)
    return swap + [h_coin] + swap


def _position_hadamard_with_aux() -> list:
    # H on each working qubit, realized by swapping it with the coin,
    # applying the Hadamard coin, and swapping back.
    cx_c_to_q2 = _cx_coin_to_cycle_bit(s_minus(1), s_plus(1))
    cx_c_to_q1 = _cx_coin_to_cycle_bit(s_plus(1), s_minus(1))
    cx_q2_to_c = WalkStep(
        {1: COIN_X, 2: COIN_X}, tag=TAG_POSITION_HADAMARD
    )  # vertices with label bit q2 = 1
    cx_q1_to_c = WalkStep(
        {2: COIN_X, 3: COIN_X}, tag=TAG_POSITION_HADAMARD
    )  # vertices with label bit q1 = 1
    return _h_on_cycle_bit(cx_c_to_q2, cx_q2_to_c) + _h_on_cycle_bit(
        cx_c_to_q1, cx_q1_to_c
    )


def _position_hadamard_no_aux() -> list:
    # Swap coin and path qubit (three alternating CNOTs), Hadamard the coin,
    # swap back.  On the two-vertex line the conditioned shift traverses the
    # single edge, i.e. acts as CNOT(coin -> path).
    cx_c_to_p = WalkStep(shift=s_plus(1), tag=TAG_POSITION_HADAMARD)
    cx_p_to_c = WalkStep({1: COIN_X}, tag=TAG_POSITION_HADAMARD)
    h_coin = WalkStep(dict.fromkeys(range(2), COIN_HADAMARD), tag=TAG_POSITION_HADAMARD)
    return [cx_c_to_p, cx_p_to_c, cx_c_to_p, h_coin, cx_c_to_p, cx_p_to_c, cx_c_to_p]


def hadamard_layer(scheme: str, include_coin: bool = True) -> list:
    """Walk program applying H to the position qubits and, optionally, the coin."""
    record = _scheme(scheme)
    return [*((record.coin_hadamard,) if include_coin else ()), *record.position_hadamard]


@dataclass(frozen=True, eq=False)
class _Scheme:
    """Every per-scheme decision of the DJ/BV pipeline; see ``_scheme``."""

    topology: Topology
    outcome: np.ndarray  # the input x of each amplitude, coin-major; read-only
    oracle: Callable[[BooleanFn], tuple]
    coin_hadamard: WalkStep
    position_hadamard: tuple
    prefix: tuple  # state preparation and the first H layer
    suffix: tuple  # the final H layer
    prefix_operator: np.ndarray  # read-only
    suffix_operator: np.ndarray  # read-only
    entering: WalkState  # the state entering the oracle: prefix_operator's column 0


@functools.lru_cache(maxsize=2)  # one per scheme; an unknown name raises and is never cached
def _scheme(name: str) -> _Scheme:
    """The record of one scheme, built once per scheme and process.

    With-aux prepares the coin, the auxiliary qubit, in |1> and leaves it out of
    the final H layer; no-aux reads the coin as the first input bit.
    """
    if name == WITH_AUX:
        topology, outcome, oracle = CYCLE4, with_aux_index_map() // 2, build_oracle_with_aux
        position = tuple(_position_hadamard_with_aux())
        prep, reads_coin = (WalkStep({0: COIN_X}, tag=TAG_PREP),), False
    elif name == NO_AUX:
        topology, outcome, oracle = LINE2, np.arange(4), build_oracle_no_aux
        position = tuple(_position_hadamard_no_aux())
        prep, reads_coin = (), True
    else:
        raise ValueError(f"unknown scheme: {name!r}")
    coin = WalkStep(dict.fromkeys(range(topology.size), COIN_HADAMARD), tag=TAG_COIN_HADAMARD)
    prefix = (*prep, coin, *position)
    suffix = (coin, *position) if reads_coin else position
    operators = [program_operator(steps, topology) for steps in (prefix, suffix)]
    for m in (*operators, outcome):
        m.setflags(write=False)
    entering = WalkState(topology, operators[0][:, 0])
    return _Scheme(topology, outcome, oracle, coin, position, prefix, suffix, *operators, entering)


@dataclass(frozen=True)
class DJOutcome:
    scheme: str
    p_all_zero: float

    @property
    def classification(self) -> FnClass:
        return FnClass.CONSTANT if self.p_all_zero > 0.5 else FnClass.BALANCED


@functools.lru_cache(maxsize=2 * 16)  # at most 16 two-bit tables per scheme
def _dj_oracle(f: BooleanFn, scheme: str) -> tuple:
    """The oracle step, the only part of a run that depends on f; one per (f, scheme)."""
    return _scheme(scheme).oracle(f)


def _require_fn(f) -> None:
    if not isinstance(f, BooleanFn):  # before the oracle memo hashes it
        raise ValueError(f"function {f!r} is not a BooleanFn")


def build_dj_program(f: BooleanFn, scheme: str) -> list:
    """Full walk program for one Deutsch-Jozsa run, as a new list of shared steps."""
    _require_fn(f)
    record = _scheme(scheme)
    return [*record.prefix, *_dj_oracle(f, scheme), *record.suffix]


def dj_pipeline_states(f: BooleanFn, scheme: str) -> list:
    """(stage name, WalkState) snapshots through the full pipeline, one per tag run."""
    state = WalkState.basis(scheme_topology(scheme), 0, 0)
    snapshots = [("initial", state)]
    for tag, stage in itertools.groupby(build_dj_program(f, scheme), lambda s: s.tag):
        state = run_program(state, list(stage))
        snapshots.append((tag or "step", state))
    return snapshots


def _dj_operator(f: BooleanFn, scheme: str) -> np.ndarray:
    """Operator of ``build_dj_program(f, scheme)``; only the oracle's is built per call."""
    record = _scheme(scheme)
    oracle = program_operator(_dj_oracle(f, scheme), record.topology)
    return record.suffix_operator.dot(oracle).dot(record.prefix_operator)


def _dj_final_state(f: BooleanFn, scheme: str) -> WalkState:
    """Final state of ``build_dj_program(f, scheme)`` run from basis (0, 0); only the
    oracle step is evolved per call, between the scheme record's operators."""
    record = _scheme(scheme)
    queried = run_program(record.entering, _dj_oracle(f, scheme))
    amps = record.suffix_operator.dot(queried.amplitudes)
    norm, measured = queried.norm(), _norm(amps)
    if not abs(measured - norm) <= NORM_TOL * norm:  # NaN fails
        raise WalkError("final H layer did not preserve the state norm")
    return WalkState._from_checked(record.topology, amps, measured)


def _walk_probabilities(f: BooleanFn, scheme: str) -> np.ndarray:
    """P(x) for each input x in the final walk state; the amplitudes of one x add, coin 0 first."""
    joint = measure_joint(_dj_final_state(f, scheme)).ravel()
    return np.bincount(_scheme(scheme).outcome, weights=joint)


def run_dj(f: BooleanFn, scheme: str) -> DJOutcome:
    _require_fn(f)
    if classify_fn(f) is FnClass.NEITHER:
        raise PromiseViolation("function is neither constant nor balanced")
    return DJOutcome(scheme, float(_walk_probabilities(f, scheme)[0]))


@dataclass(frozen=True)
class BVOutcome:
    scheme: str
    hidden: str
    recovered: str
    probability: float
    distribution: Mapping[str, float]


class _BitLabelView(Mapping):
    """Read-only label -> probability view of an x-ordered array: key i is
    ``format(i, f"0{n}b")``, so it iterates like a dict built in x order."""

    __slots__ = ("_probs", "_n")

    def __init__(self, probs: np.ndarray, n: int) -> None:
        probs.setflags(write=False)  # the view owns the array
        self._probs, self._n = probs, n

    def __getitem__(self, label: str) -> float:
        # Exactly n "0"/"1" characters: int(label, 2) alone would take "0b1" or "1_0".
        if not (isinstance(label, str) and len(label) == self._n and not label.strip("01")):
            raise KeyError(label)
        return float(self._probs[int(label, 2)])

    def __iter__(self):
        return map("".join, itertools.product("01", repeat=self._n))

    def __len__(self) -> int:
        return len(self._probs)

    def __repr__(self) -> str:
        return repr(dict(zip(self, self._probs.tolist())))  # the array read once, no lookups


def run_bv(s: str, scheme: str) -> BVOutcome:
    """Recover a hidden string from one oracle query.

    Length-2 strings run through the walk pipeline; longer strings fall back
    to the brute-force reference (no walk circuits exist beyond two bits).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme: {scheme!r}")
    # Before hidden_string_fn builds all 2^n entries; it rejects a non-str itself.
    if isinstance(s, str) and len(s) > REFERENCE_MAX_N:
        raise ValueError(
            f"brute-force reference supports n <= {REFERENCE_MAX_N}, got n = {len(s)}"
        )
    f = hidden_string_fn(s)
    probs = _walk_probabilities(f, scheme) if f.n == 2 else _reference_probabilities(scheme, f)
    dist = _BitLabelView(probs, f.n)
    recovered = format(int(probs.argmax()), f"0{f.n}b")  # the first maximum in x order
    return BVOutcome(scheme, s, recovered, dist[recovered], dist)


# The dense reference returns 2^(n+1) complex amplitudes: 32 MB at the limit.
REFERENCE_MAX_N = 20


# At most 2^19 multiply-adds per BLAS call: OpenBLAS 0.3.31 runs larger products
# on its thread pool, which took 16-32 ms a call on a 2-vCPU VM.  6-qubit chunks
# keep n <= 6 one product; README gives the n-curve they were chosen from.
HADAMARD_CHUNK_QUBITS = 6
HADAMARD_CALL_MADDS = 2**19


@functools.lru_cache(maxsize=2 * HADAMARD_CHUNK_QUBITS)  # rest 1, or 2 for the aux
def _sylvester(qubits: int, rest: int) -> np.ndarray:
    """Read-only +-1 Sylvester-Hadamard matrix of order 2**qubits, (x) I_rest."""
    s = functools.reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * qubits + [np.eye(rest)])
    s.setflags(write=False)
    return s


def _hadamard_all(vec: np.ndarray, qubits: int) -> None:
    """Unnormalised H on each of the first ``qubits`` factors of ``vec``, in place.

    Qubit 0 is the most significant factor of the flat index.  H^(a+b) = H^a (x)
    H^b: each near-equal chunk of at most ``HADAMARD_CHUNK_QUBITS`` qubits is one
    +-1 Sylvester product on the real view, a slice of columns at a time, and the
    last of several is one by S (x) I_rest from the right, a slice of rows at a time.
    With no 2^(-1/2) factor, integer-valued input stays integer-valued and exact.
    """
    t = vec.view(float)
    chunks = -(-qubits // HADAMARD_CHUNK_QUBITS)
    done = 0
    for i in range(chunks):
        c = (qubits - done) // (chunks - i)
        rest = t.size >> (done + c)
        if 0 < i == chunks - 1:  # only the aux factor, and the complex view's, follows
            order = rest << c
            m = t.reshape(-1, min(2**done, HADAMARD_CALL_MADDS // order**2), order)
            m[...] = m @ _sylvester(c, rest)
            return
        width = min(rest, HADAMARD_CALL_MADDS >> 2 * c)  # columns per call
        s = t.reshape(2**done, 2**c, rest // width, width).swapaxes(1, 2)
        s[...] = _sylvester(c, 1) @ s
        done += c


# The with-aux start, indexed by f(x): the unnormalised aux pair H|1> at |y xor f(x)>.
_AUX_PAIRS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_AUX_PAIRS.setflags(write=False)


def brute_force_reference(scheme: str, f: BooleanFn) -> np.ndarray:
    """Textbook dense-state execution, independent of all walk machinery.

    Returns the final state vector in the computational basis: |x1..xn>|aux>
    for the with-aux scheme, |x1..xn> otherwise.  The first Hadamard layer is
    the closed-form uniform superposition and the last one is unnormalised, so
    the real amplitudes are exact integers until the one final scaling.
    """
    n = f.n
    if n > REFERENCE_MAX_N:
        raise ValueError(
            f"brute-force reference supports n <= {REFERENCE_MAX_N}, got n = {n}"
        )
    if scheme == NO_AUX:
        vec = np.where(np.frombuffer(f.table, bool), -1.0, 1.0)  # H^n|0...0> and the phase oracle
        scale = 2.0**-n
    elif scheme == WITH_AUX:
        # H^(n+1)|0...0>|1>, then |x>|y> -> |x>|y xor f(x)>: the aux pair of every
        # x with f(x) = 1 swapped.
        vec = _AUX_PAIRS.take(np.frombuffer(f.table, bool), axis=0).ravel()
        scale = 2 ** (-(2 * n + 1) / 2)
    else:
        raise ValueError(f"unknown scheme: {scheme!r}")
    _hadamard_all(vec, n)
    vec *= scale
    return vec.astype(complex)


def _reference_probabilities(scheme: str, f: BooleanFn) -> np.ndarray:
    """P(x) for each input x in the reference's final state, the aux summed out."""
    # Through the module's brute_force_reference, so a patched or traced reference
    # is the one read.  Every imaginary part is 0, so the real part squared has
    # the bits of |a|^2 without np.abs's hypot; the complex vector is freed once
    # it is squared.
    probs = brute_force_reference(scheme, f).real ** 2
    return probs if probs.size == 2**f.n else probs[0::2] + probs[1::2]


def brute_force_p_all_zero(scheme: str, f: BooleanFn) -> float:
    return float(_reference_probabilities(scheme, f)[0])
