"""Independent dense-statevector evaluation of output probabilities.

Used to cross-check the verifier's Pauli back-propagated `p_classical`
outside the timed loop.  It shares no code with `cliffcert.statevector`:
the state is a flat vector of 2^n amplitudes with line i on bit i of the
index, and every gate is an index permutation or a 2x2 update on the
amplitude pairs that differ in one bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_R = math.sqrt(0.5)
_ONE_LINE = {
    "H": ((_R, _R), (_R, -_R)),
    "S": ((1, 0), (0, 1j)),
    "SDG": ((1, 0), (0, -1j)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "Z": ((1, 0), (0, -1)),
    "ID": ((1, 0), (0, 1)),
}


def _line_amplitudes(state) -> tuple[complex, complex]:
    if state.kind == "ZERO":
        return 1, 0
    if state.kind == "ONE":
        return 0, 1
    if state.kind == "MAGIC":
        return _R, _R * cmath.exp(1j * math.pi / 4)
    return (math.cos(state.theta / 2),
            cmath.exp(1j * state.phi) * math.sin(state.theta / 2))


def output_zero_probability(circuit, gadget_outcomes) -> float:
    """P(output = 0) of a gadgetized circuit with every gadget correction
    frozen to `gadget_outcomes`.

    Measurements are skipped: a measured line is never used again, so
    measuring it cannot change the marginal of the output line.
    """
    n = circuit.n_lines
    index = np.arange(1 << n)
    psi = np.ones(1, dtype=complex)
    for line in range(n):  # line i is bit i, so later lines are higher
        a0, a1 = _line_amplitudes(circuit.inputs[line])
        psi = np.concatenate((psi * a0, psi * a1))

    def bit(line):
        return (index >> line) & 1 == 1

    def one_line(op, line):
        (u00, u01), (u10, u11) = _ONE_LINE[op]
        low = index[~bit(line)]
        high = low | (1 << line)
        s0, s1 = psi[low].copy(), psi[high].copy()
        psi[low] = u00 * s0 + u01 * s1
        psi[high] = u10 * s0 + u11 * s1

    def two_line(op, a, b):
        nonlocal psi
        if op == "CX":
            psi = psi[np.where(bit(a), index ^ (1 << b), index)]
        elif op == "CZ":
            psi = np.where(bit(a) & bit(b), -psi, psi)
        else:  # SWAP
            swapped = np.where(bit(a) != bit(b),
                               index ^ ((1 << a) | (1 << b)), index)
            psi = psi[swapped]

    outcomes = iter(gadget_outcomes)
    for ins in circuit.instructions:
        if ins.op == "MEASURE":
            continue
        if ins.op == "TGADGET":
            target = ins.targets[0]
            two_line("CX", target, ins.ancilla)
            if next(outcomes):
                one_line("S", target)
        elif len(ins.targets) == 2:
            two_line(ins.op, *ins.targets)
        else:
            one_line(ins.op, ins.targets[0])
    return float(np.sum(np.abs(psi[~bit(circuit.output_line)]) ** 2))
