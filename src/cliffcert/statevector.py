"""Dense statevector simulation of small circuits.

States are numpy complex128 arrays of shape (2,) * n, axis i holding line i.
This module is purely unitary/projective quantum mechanics: gate matrices,
state preparation, gate application, measurement probabilities and collapse.
Sampling, fault models, and run bookkeeping live in :mod:`cliffcert.prover`.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import MAGIC, ONE, ZERO, InputState, Instruction

DEFAULT_MAX_LINES = 20

_R = math.sqrt(0.5)

GATES_1Q = {
    "H": np.array([[_R, _R], [_R, -_R]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "ID": np.eye(2, dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}

GATES_2Q = {
    "CX": np.array([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 0, 1],
                    [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0],
                      [0, 0, 1, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1]], dtype=complex),
}


def single_qubit_state(state: InputState,
                       magic_phase_shift: float = 0.0) -> np.ndarray:
    """Amplitudes (a0, a1) of one input line.

    `magic_phase_shift` perturbs the relative phase of MAGIC preparations
    only; it models a miscalibrated magic-state source and deliberately does
    not touch GENERAL inputs, even ones numerically equal to the magic state.
    """
    if state.kind == ZERO:
        return np.array([1.0, 0.0], dtype=complex)
    if state.kind == ONE:
        return np.array([0.0, 1.0], dtype=complex)
    if state.kind == MAGIC:
        phase = math.pi / 4 + magic_phase_shift
        return np.array([_R, _R * np.exp(1j * phase)], dtype=complex)
    return np.array([math.cos(state.theta / 2.0),
                     np.exp(1j * state.phi) * math.sin(state.theta / 2.0)],
                    dtype=complex)


def init_state(inputs, magic_phase_shift: float = 0.0,
               max_lines: int = DEFAULT_MAX_LINES) -> np.ndarray:
    """Tensor product of per-line input states, shape (2,) * n."""
    n = len(inputs)
    if n > max_lines:
        raise ValueError(f"{n} lines exceed the configured maximum {max_lines}")
    state = np.array(1.0, dtype=complex)
    for inp in inputs:
        state = np.tensordot(state, single_qubit_state(inp, magic_phase_shift),
                             axes=0)
    return state.reshape((2,) * n)


def apply_matrix_1q(state: np.ndarray, matrix: np.ndarray,
                    line: int) -> np.ndarray:
    moved = np.moveaxis(state, line, 0)
    out = np.tensordot(matrix, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, line)


def apply_matrix_2q(state: np.ndarray, matrix: np.ndarray,
                    line_a: int, line_b: int) -> np.ndarray:
    moved = np.moveaxis(state, (line_a, line_b), (0, 1))
    shape = moved.shape
    flat = moved.reshape(4, -1)
    out = (matrix @ flat).reshape(shape)
    return np.moveaxis(out, (0, 1), (line_a, line_b))


def apply_gate(state: np.ndarray, ins: Instruction) -> np.ndarray:
    """Apply a unitary instruction; MEASURE/TGADGET are rejected."""
    if ins.op in GATES_1Q:
        return apply_matrix_1q(state, GATES_1Q[ins.op], ins.targets[0])
    if ins.op in GATES_2Q:
        return apply_matrix_2q(state, GATES_2Q[ins.op], ins.targets[0],
                               ins.targets[1])
    raise ValueError(f"{ins.op} is not a unitary gate")


def apply_pauli(state: np.ndarray, line: int, pauli: str) -> np.ndarray:
    return apply_matrix_1q(state, GATES_1Q[pauli], line)


def probability_of_one(state: np.ndarray, line: int) -> float:
    moved = np.moveaxis(state, line, 0)
    return float(np.sum(np.abs(moved[1]) ** 2))


def collapse(state: np.ndarray, line: int, outcome: int) -> np.ndarray:
    """Project onto `outcome` on `line` and renormalise.

    Raises ValueError when the branch has zero norm (impossible outcome).
    """
    moved = np.moveaxis(state, line, 0).copy()
    moved[1 - outcome] = 0.0
    norm = math.sqrt(float(np.sum(np.abs(moved) ** 2)))
    if norm < 1e-15:
        raise ValueError(f"cannot collapse line {line} onto outcome {outcome} "
                         "of probability zero")
    return np.moveaxis(moved / norm, 0, line)
