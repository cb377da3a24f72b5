"""Linear-optics model and compiler for the walk programs.

A photon state is a ``WalkState``: polarization is the coin and mode the
position, in the same coin-major flat index, so circuits and walk programs
act on the same states and give directly comparable operators.

Components: half-wave plates (HWP), 50:50 beam splitters (BS), phase
shifters, polarizing beam splitters (PBS), and mode permuters.  Mode
permuters are path relabelings and never count as physical components.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import algorithms as alg
from .walk_core import (
    FIDELITY_TOL,
    MATCH_TOL,
    NORM_TOL,
    Topology,
    WalkState,
    WalkStep,
    _is_finite_real,
    _is_int,
    _kernel_matrix,
    _norm,
    _tuple_of,
    program_operator,
)


class CompileError(Exception):
    """A walk program has no valid lowering to the optical component set."""


class UnsupportedCoin(CompileError):
    """A coin operator outside the supported lowering alphabet."""


class ModeCollision(ValueError):
    """A stage uses a mode twice; a mode permuter uses every mode."""


@dataclass(frozen=True)
class HWP:
    angle: float
    mode: int
    kind: str = field(default="hwp", init=False)


@dataclass(frozen=True)
class BeamSplitter:
    mode_a: int
    mode_b: int
    kind: str = field(default="bs", init=False)


@dataclass(frozen=True)
class PhaseShifter:
    phase: float
    mode: int
    kind: str = field(default="phase_shifter", init=False)


@dataclass(frozen=True)
class PBS:
    """Polarizing beam splitter: transmits H in place, routes V between modes."""

    mode_a: int
    mode_b: int
    kind: str = field(default="pbs", init=False)


@dataclass(frozen=True)
class ModePermuter:
    permutation: tuple
    kind: str = field(default="mode_permuter", init=False)

    def __post_init__(self) -> None:
        # A tuple keeps the component hashable, so its stage can be memoised.
        object.__setattr__(self, "permutation", _tuple_of(self.permutation, "mode permutation"))


Component = Union[HWP, BeamSplitter, PhaseShifter, PBS, ModePermuter]


def hwp_jones(alpha: float) -> np.ndarray:
    """Jones matrix of a half-wave plate at angle alpha: orthogonal, det -1."""
    c, s = np.cos(2.0 * alpha), np.sin(2.0 * alpha)  # an int past int64 as a float
    return np.array([[c, s], [s, -c]])


def bs_matrix() -> np.ndarray:
    """50:50 beam-splitter matrix, applied identically to both polarizations."""
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _component_modes(comp: Component) -> tuple:
    """The modes a component uses; a non-component, an angle or phase that is not a
    finite int or float, or an HWP angle whose double overflows, raises ValueError."""
    if isinstance(comp, (HWP, PhaseShifter)):
        value = comp.angle if isinstance(comp, HWP) else comp.phase
        if not _is_finite_real(value):
            raise ValueError(f"{comp!r}: angle or phase is not a finite int or float")
        if isinstance(comp, HWP) and not _is_finite_real(2.0 * value):  # hwp_jones doubles it
            raise ValueError(f"{comp!r}: twice the angle is not a finite float")
        return (comp.mode,)
    if isinstance(comp, (BeamSplitter, PBS)):
        return (comp.mode_a, comp.mode_b)
    if isinstance(comp, ModePermuter):
        return comp.permutation
    raise ValueError(f"stage entry {comp!r} is not an optical component")


@dataclass(frozen=True)
class PhotonicCircuit:
    """Staged optical circuit: within a stage each mode is used at most once.

    ``readout`` is descriptive measurement metadata (detectors / PBS usage);
    measurement optics are not part of ``stages`` and are never counted.
    """

    n_modes: int
    stages: tuple
    readout: Optional[dict] = None

    def __post_init__(self) -> None:
        if not (_is_int(self.n_modes) and self.n_modes >= 1):  # the rule of Topology.size
            raise ValueError(f"mode count must be a positive int, got {self.n_modes!r}")
        object.__setattr__(self, "n_modes", int(self.n_modes))  # np.int64 -> int, for JSON
        if not (self.readout is None or isinstance(self.readout, dict)):
            raise ValueError(f"readout must be None or a dict, got {type(self.readout).__name__}")
        stages = _tuple_of(self.stages, "stages")
        for stage in stages:
            if not isinstance(stage, (tuple, list)):
                raise ValueError(f"stage {stage!r} is not a tuple of components")
            used: list = []
            for comp in stage:
                modes = _component_modes(comp)
                # Equal stages share one memoised matrix, so a mode that equals
                # an int without being one (True, 1.0) must not get that far.
                bad = [m for m in modes if not _is_int(m)]
                if bad:
                    raise ValueError(f"component mode {bad[0]!r} is not an int")
                if any(m < 0 or m >= self.n_modes for m in modes):
                    raise ValueError(f"component references mode >= {self.n_modes}")
                if isinstance(comp, ModePermuter) and (  # length first: n_modes may be 2**63
                    len(modes) != self.n_modes or sorted(modes) != list(range(self.n_modes))
                ):
                    raise ValueError(
                        f"mode permuter {comp.permutation} is not a permutation "
                        f"of {self.n_modes} modes"
                    )
                used += modes
            if len(set(used)) < len(used):
                raise ModeCollision("stage components must act on disjoint modes")
        object.__setattr__(self, "stages", tuple(map(tuple, stages)))


def _apply_component(amps: np.ndarray, comp: Component) -> None:
    """Apply one component in place to ``amps``, a (2, n_modes, ...) view."""
    if isinstance(comp, HWP):
        amps[:, comp.mode] = hwp_jones(comp.angle) @ amps[:, comp.mode]
    elif isinstance(comp, PhaseShifter):
        amps[:, comp.mode] *= np.exp(1j * comp.phase)
    elif isinstance(comp, BeamSplitter):
        u = bs_matrix()
        a, b = amps[:, comp.mode_a], amps[:, comp.mode_b]
        amps[:, comp.mode_a], amps[:, comp.mode_b] = (
            u[0, 0] * a + u[0, 1] * b,
            u[1, 0] * a + u[1, 1] * b,
        )
    elif isinstance(comp, PBS):
        modes = [comp.mode_a, comp.mode_b]
        amps[1, modes] = amps[1, modes[::-1]]
    elif isinstance(comp, ModePermuter):
        amps[:, list(comp.permutation)] = amps.copy()
    else:
        raise TypeError(f"unknown component: {comp!r}")


def _apply_stage(amps: np.ndarray, stage: tuple) -> None:
    """Apply one stage's components in order, in place: the optics kernel."""
    for comp in stage:
        _apply_component(amps, comp)


def circuit_operator(circuit: PhotonicCircuit) -> np.ndarray:
    """Induced unitary of the whole circuit: the product of its stage matrices."""
    m = np.eye(2 * circuit.n_modes, dtype=complex)
    for stage in circuit.stages:
        m = _kernel_matrix(_apply_stage, circuit.n_modes, stage).dot(m)
    return m


def simulate_photonic(circuit: PhotonicCircuit, state: WalkState) -> WalkState:
    """Apply the circuit stages in order; each stage keeps the input norm.

    The state's topology must have ``circuit.n_modes`` positions; its kind
    is not read.
    """
    if state.topology.size != circuit.n_modes:
        raise ValueError("state and circuit mode counts differ")
    amps = state.amplitudes
    norm = state.norm()
    for stage in circuit.stages:
        amps = _kernel_matrix(_apply_stage, circuit.n_modes, stage).dot(amps)
        if not abs(_norm(amps) - norm) <= NORM_TOL:  # NaN fails
            raise ValueError("stage did not preserve the state norm")
    return WalkState(state.topology, amps)


# Coin lowering alphabet: matrix pattern -> component factory (None = no optics).
_LOWERINGS = (
    (np.eye(2), None),
    (alg.COIN_X, lambda mode: HWP(np.pi / 4, mode)),
    (alg.COIN_PHASE_FLIP_1, lambda mode: HWP(0.0, mode)),
    (alg.COIN_PHASE_FLIP_0, lambda mode: HWP(np.pi / 2, mode)),
    (alg.COIN_HADAMARD, lambda mode: HWP(np.pi / 8, mode)),
    (alg.COIN_NEG_IDENTITY, lambda mode: PhaseShifter(np.pi, mode)),
)
_PATTERNS = np.array([pattern for pattern, _ in _LOWERINGS])


def _lower_coin(coin: np.ndarray, mode: int) -> Optional[Component]:
    # One comparison against the whole alphabet; the first match wins.
    hits = np.flatnonzero(np.max(np.abs(coin - _PATTERNS), axis=(1, 2)) <= MATCH_TOL)
    if hits.size:
        factory = _LOWERINGS[hits[0]][1]
        return None if factory is None else factory(mode)
    raise UnsupportedCoin(
        f"coin at mode {mode} has no exact lowering in the component set"
    )


@functools.lru_cache(maxsize=64)
def _lower_step(step) -> tuple:
    """Components of one step outside a position-Hadamard block, in mode order; each
    distinct step is lowered once per process, and one with no lowering raises every call."""
    if step.shift is not None:
        raise UnsupportedCoin("shift outside a position-Hadamard block has no lowering")
    comps = (_lower_coin(step.coin_map[mode], mode) for mode in sorted(step.coin_map))
    return tuple(comp for comp in comps if comp is not None)


# Stages of the position-Hadamard butterfly per mode count, one tuple each, so
# ``_kernel_matrix`` finds its stages by identity.  Beam splitters realize H on
# the path qubits; on four modes a butterfly of two BS stages with interleaved
# relabelings gives H on both working qubits of the Gray-labeled cycle.
_POSITION_HADAMARD_STAGES = {
    2: ((BeamSplitter(0, 1),),),
    4: (
        (BeamSplitter(0, 1), BeamSplitter(3, 2)),
        (ModePermuter((0, 2, 3, 1)),),
        (BeamSplitter(0, 1), BeamSplitter(2, 3)),
        (ModePermuter((0, 3, 1, 2)),),
    ),
}


@functools.lru_cache(maxsize=32)
def _block_matches(topology: Topology, block: tuple) -> bool:
    """Whether the block's walk operator equals the beam-splitter butterfly.

    Steps are values, so blocks with equal content give equal operators and
    the full comparison runs once per distinct block and process.
    """
    n_modes = topology.size
    walk_op = program_operator(block, topology)
    optics = PhotonicCircuit(n_modes, _POSITION_HADAMARD_STAGES[n_modes])
    return alg.equal_up_to_global_phase(
        circuit_operator(optics), walk_op, tol=FIDELITY_TOL
    )


def _readout_metadata(scheme: str, algorithm: str) -> dict:
    # No-aux reads the coin too, so it resolves polarization behind a PBS;
    # with-aux DJ needs only the all-zero vertex, mode 0.
    resolving = scheme == alg.NO_AUX
    one_mode = scheme == alg.WITH_AUX and algorithm == "dj"
    return {
        "scheme": scheme,
        "algorithm": algorithm,
        "polarization_resolving": resolving,
        "elements": ["PBS"] if resolving else [],
        "detectors": (
            "single-photon detector on mode 0"
            if one_mode
            else "single-photon detectors on all modes"
        ),
    }


def compile(program: Sequence, scheme: str, algorithm: str = "dj") -> PhotonicCircuit:
    """Lower a walk program to a staged photonic circuit.

    Position-dependent coins become per-mode HWPs or phase shifters;
    position-Hadamard blocks become BS stages.  The compiled operator is
    checked against the walk operator block by block; a position-Hadamard
    block is checked once per distinct content and process (``_block_matches``),
    and every other step is lowered once per distinct step (``_lower_step``).
    """
    if algorithm not in ("dj", "bv"):
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    topo = alg.scheme_topology(scheme)
    n_modes = topo.size
    steps = _tuple_of(program, "program")
    for step in steps:
        if not isinstance(step, WalkStep):
            raise ValueError(f"program entry {step!r} is not a WalkStep")
    stages: list = []
    for tag, run in itertools.groupby(steps, lambda step: step.tag):
        if tag == alg.TAG_POSITION_HADAMARD:
            if not _block_matches(topo, tuple(run)):
                raise CompileError("position-Hadamard block does not match its walk segment")
            stages.extend(_POSITION_HADAMARD_STAGES[n_modes])
        else:
            stages.extend(stage for stage in map(_lower_step, run) if stage)
    return PhotonicCircuit(n_modes, tuple(stages), _readout_metadata(scheme, algorithm))


@dataclass(frozen=True)
class ComponentCount:
    hwp: int = 0
    bs: int = 0
    phase_shifter: int = 0
    pbs: int = 0

    @property
    def total(self) -> int:
        return self.hwp + self.bs + self.phase_shifter + self.pbs


def count_components(circuit: PhotonicCircuit) -> ComponentCount:
    """Tally physical components; mode permuters and measurement optics excluded."""
    counts = {"hwp": 0, "bs": 0, "phase_shifter": 0, "pbs": 0}
    for stage in circuit.stages:
        for comp in stage:
            if comp.kind in counts:
                counts[comp.kind] += 1
    return ComponentCount(**counts)


def resource_report(functions: Sequence, algorithm: str = "dj") -> list:
    """Per-(function, scheme) component counts for compiled full circuits.

    ``functions`` is a sequence of (name, BooleanFn) pairs; row order is
    function order x scheme order.
    """
    rows = []
    for entry in _tuple_of(functions, "functions"):
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and isinstance(entry[0], str)):
            raise ValueError(f"function entry {entry!r} is not a (name, BooleanFn) pair")
        name, f = entry
        if not isinstance(f, alg.BooleanFn):
            raise ValueError(f"function {name!r}: {f!r} is not a BooleanFn")
        for scheme in alg.SCHEMES:
            circuit = compile(alg.build_dj_program(f, scheme), scheme, algorithm)
            c = count_components(circuit)
            counts = {**asdict(c), "total": c.total, "readout": circuit.readout}
            rows.append({"function_name": name, "scheme": scheme, **counts})
    return rows


CSV_COLUMNS = ("function_name", "scheme", "hwp", "bs", "phase_shifter", "pbs", "total")


def report_to_csv(rows: Sequence[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _json_value(value):
    """A component field as json.dumps takes it: a numpy scalar (PhotonicCircuit
    accepts numpy-int modes) as its Python value, a permutation as a list."""
    if isinstance(value, tuple):  # a permutation
        return [_json_value(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def _component_to_json(comp: Component) -> dict:
    # ``kind`` first, then the fields in order
    return {"kind": comp.kind, **{k: _json_value(v) for k, v in asdict(comp).items()}}


def circuit_to_json(circuit: PhotonicCircuit) -> dict:
    return {
        "n_modes": circuit.n_modes,
        "stages": [
            [_component_to_json(c) for c in stage] for stage in circuit.stages
        ],
        "readout": circuit.readout,
    }
