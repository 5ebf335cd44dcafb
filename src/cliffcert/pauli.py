"""Pauli back-propagation and polynomial-time output probabilities.

Signed n-line Paulis exist only inside a :class:`PauliFrame`, bit-sliced
per line: a line's (x, z) bits give an operator's factor there via
(x, z) -> {00: I, 10: X, 11: Y, 01: Z}.  Each measured Z is pulled back
through the gates before it (Heisenberg picture, Aaronson-Gottesman
quant-ph/0406196) by the frame, the one Clifford conjugation rule table:
one backward sweep over N gates moves every operator of the frame at
once, a few integer operations per gate.  With per-line input
expectations this gives output probabilities of non-adaptive sequences on
product inputs in time linear in circuit size.  The joint outcome table
of a swept frame's k commuting operators (:func:`outcome_table`, shared by
the verifier and the simulated device) reads every subset product off the
frame's slices, operator j as bit j of a cell: O(|U| * 2^k) for a union
support of |U| lines in a fixed number of array passes, plus the k passes
of one Walsh-Hadamard transform.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import (MAGIC, Circuit, FixedSequence, Instruction,
                      InputState)

K_MAX = 10


class PauliFrame:
    """Many signed Paulis on the same lines, bit-sliced as Stim packs Pauli
    frames (Gidney, arXiv:2103.02202): bit i of `xs[line]` / `zs[line]` is
    operator i's x / z bit on that line, and bit i of `signs` is set where
    operator i has sign -1.  One gate update acts on every operator at
    once, in a handful of integer operations."""

    def __init__(self, n_lines: int):
        self.n_lines = n_lines
        self.xs = [0] * n_lines
        self.zs = [0] * n_lines
        self.signs = 0
        # holds every line with nonzero slices: only an entering operator
        # or a two-line gate makes a zero line nonzero
        self.touched: set[int] = set()

    def sweep(self, instructions: Sequence[Instruction],
              enter: dict[int, int]):
        """Walk `instructions` backwards, replacing every operator p by
        gate^dagger * p * gate at each gate (MEASURE and ID pass), which
        leaves U^dagger p U for their unitary U.  The MEASURE of a line in
        `enter` adds that line's Z as operator enter[line], so it is pulled
        back through the gates before its own measurement only.  Yields
        each gate with the frame holding every operator as it stands just
        after that gate."""
        xs, zs = self.xs, self.zs
        for gate in reversed(instructions):
            op = gate.op
            if op == "MEASURE":
                line = gate.targets[0]
                if line in enter:
                    zs[line] |= 1 << enter[line]
                    self.touched.add(line)
                continue
            if op == "ID":
                continue
            yield gate
            if op in ("CX", "CZ", "SWAP"):
                a, b = gate.targets
                self.touched.update(gate.targets)
                xa, za, xb, zb = xs[a], zs[a], xs[b], zs[b]
                if op == "CX":
                    self.signs ^= xa & zb & ~(xb ^ za)
                    xs[b] = xb ^ xa
                    zs[a] = za ^ zb
                elif op == "CZ":
                    self.signs ^= xa & xb & (za ^ zb)
                    zs[a] = za ^ xb
                    zs[b] = zb ^ xa
                else:
                    xs[a], xs[b], zs[a], zs[b] = xb, xa, zb, za
                continue
            t = gate.targets[0]
            x, z = xs[t], zs[t]
            if op == "H":
                self.signs ^= x & z
                xs[t], zs[t] = z, x
            elif op == "S":
                # S^dagger X S = -Y, S^dagger Y S = +X
                self.signs ^= x & ~z
                zs[t] = z ^ x
            elif op == "SDG":
                # S X S^dagger = +Y, S Y S^dagger = -X
                self.signs ^= x & z
                zs[t] = z ^ x
            elif op == "X":
                self.signs ^= z
            elif op == "Y":
                self.signs ^= x ^ z
            elif op == "Z":
                self.signs ^= x
            elif op == "T":
                raise ValueError("T is not a Clifford gate")
            else:
                raise ValueError(f"{op} is not unitary")



def backpropagate(seq: Circuit, line: int,
                  at: int | None = None) -> PauliFrame:
    """U^dagger Z_line U for the unitary part U of seq.instructions[:at],
    as operator 0 of a swept one-operator frame.

    Measurements and ID markers are skipped: by the measured-line no-reuse
    invariant a mid-sequence measurement commutes with everything that
    follows it, so the unitary part alone fixes the operator.
    """
    if not (0 <= line < seq.n_lines):
        raise ValueError(f"line {line} out of range")
    count = len(seq.instructions)
    if at is None:
        at = count
    if not (0 <= at <= count):
        raise ValueError(f"position {at} outside 0..{count}")
    frame = PauliFrame(seq.n_lines)
    frame.zs[line] = 1
    frame.touched.add(line)
    for _ in frame.sweep(seq.instructions[:at], {}):
        pass
    return frame


def single_output_probability(seq: FixedSequence, outcome: int) -> float:
    """P(output bit = outcome) for a valid fixed sequence on its inputs:
    (1 + (-1)^outcome <P>) / 2 for P = :func:`backpropagate`'s operator,
    <P> its sign times one Bloch component per support line, in increasing
    line order.  Intermediate measurements are omitted outright; on
    no-reuse sequences they cannot influence the reduced state of the
    remaining lines.
    """
    frame = backpropagate(seq, seq.output_line)
    value = -1.0 if (frame.signs ^ outcome) & 1 else 1.0
    for line in sorted(frame.touched):
        x, z = frame.xs[line], frame.zs[line]
        if x | z:
            ex, ey, ez = seq.inputs[line].bloch()
            value *= ey if x & z else (ex if x else ez)
    return (1.0 + value) / 2.0


def joint_output_probability(seq: FixedSequence,
                             lines: Sequence[int]) -> np.ndarray:
    """Joint outcome table of up to K_MAX measured lines.

    Returns 2^k probabilities; bit k-1-i of a cell's index is the outcome
    of lines[i], so lines[0] is the most significant bit (the layout of
    `prover.record_table`).  One sweep pulls every line's measurement
    operator back; they commute because distinct measured lines are never
    reused, so :func:`outcome_table` applies.
    """
    k = len(lines)
    if k > K_MAX:
        raise ValueError(f"{k} lines exceed k_max={K_MAX}")
    if len(set(lines)) != k:
        raise ValueError("duplicate lines in joint query")
    measured = {ins.targets[0] for ins in seq.instructions
                if ins.op == "MEASURE"}
    for line in lines:
        if line not in measured:
            raise ValueError(f"line {line} is not measured in the sequence")
    frame = PauliFrame(seq.n_lines)
    for _ in frame.sweep(seq.instructions,
                         {line: k - 1 - i for i, line in enumerate(lines)}):
        pass
    return outcome_table(frame, k, seq.inputs)


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform, in place, over the last axis
    of a C-contiguous array: entry c becomes sum_S (-1)^|c & S| values[S]."""
    for level in range(values.shape[-1].bit_length() - 1):
        pairs = values.reshape(-1, 2, 1 << level)
        first = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = first - pairs[:, 1]
    return values


def outcome_table(frame: PauliFrame, k: int, inputs: Sequence[InputState],
                  magic=None, factor=None) -> np.ndarray:
    """Joint outcome table of the k commuting signed Paulis in `frame`.

    A support line's (<X>, <Y>, <Z>) is `inputs[line].bloch()`, or `magic`
    for a MAGIC line when `magic` is given; no other line is read.  Returns
    2^k probabilities; bit j of a cell's index is the 0/1 (+1/-1) outcome
    of frame operator j.  The projector product expands to 2^-k sum_S
    (-1)^(m.S) <P_S>, and a subset S, read as a cell, meets the frame's
    slices directly: P_S has x bit |S & xs[u]| mod 2 on line u, z bit
    |S & zs[u]| mod 2.  With P_j = s_j i^|x_j&z_j| X^x_j Z^z_j, the product
    in increasing j is i^e X^x_S Z^z_S, e = 2|S & signs| + sum_{j in S}
    |x_j&z_j| + 2q(S) for q(S) the pairs i < j in S whose z_i meets x_j an
    odd number of times; as a sign times a Hermitian Pauli it is
    i^(e - |x_S&z_S|) P.  Each expectation is one factor per support line,
    multiplied in line order, and an inverse Walsh-Hadamard transform gives
    every outcome's signed sum.  Cost: O(|U| * 2^k) for a union support of
    |U| lines, in a fixed number of array passes per block of cells, plus k
    butterfly passes.  A `factor` multiplies each <P_S> before the
    transform (a channel diagonal in it).
    """
    xs, zs = frame.xs, frame.zs
    lines = [line for line in sorted(frame.touched) if xs[line] | zs[line]]
    # bits 0 and 1 of each operator's count of Y factors; cross[j]: the
    # operators i < j whose z bits meet j's x bits an odd number of times
    y_bit0 = y_bit1 = 0
    cross = [0] * k
    for line in lines:
        x, z = xs[line], zs[line]
        y_bit1 ^= y_bit0 & x & z
        y_bit0 ^= x & z
        while x:
            bit = x & -x
            cross[bit.bit_length() - 1] ^= z & (bit - 1)
            x ^= bit
    crossing = [(j, mask) for j, mask in enumerate(cross) if mask]
    count = len(lines)
    turned = y_bit1 ^ frame.signs
    masks = np.array([xs[line] for line in lines]
                     + [zs[line] for line in lines] + [y_bit0, turned]
                     + [mask for _, mask in crossing], np.int64)[:, None]
    shifts = np.array([j for j, _ in crossing], np.int64)[:, None]
    # factors[4u + 2x + z]: support line u's factor for I/Z/X/Y
    bloch = [magic if magic is not None and inputs[line].kind == MAGIC
             else inputs[line].bloch() for line in lines]
    factors = np.array([(1.0, ez, ex, ey) for ex, ey, ez in bloch]).ravel()
    offsets = np.arange(0, 4 * count, 4,
                        dtype=np.min_scalar_type(4 * count))[:, None]

    # cells are filled in blocks of at most 2^18 array entries
    block = 1 << min(k, ((1 << 18) // len(masks)).bit_length() - 1)
    size = 1 << k
    values = np.empty(size)
    for start in range(0, size, block):
        cells = np.arange(start, start + block)
        ones = np.bitwise_count(cells & masks)
        # index[u]: the index 4u + 2x + z of line u's factor
        index = offsets + (((ones[:count] & 1) << 1)
                           | (ones[count:2 * count] & 1))
        # e mod 4 of the product i^e X^x Z^z (uint8 wraps mod 256, a
        # multiple), then back to a sign times the Hermitian Pauli: less one
        # per Y factor
        exponent = ones[2 * count] + 2 * (ones[2 * count + 1] + (
            ones[2 * count + 2:] & (cells >> shifts)).sum(
                axis=0, dtype=np.uint8)) \
            - ((index & 3) == 3).sum(axis=0, dtype=np.uint8)
        if np.any(exponent & 1):
            raise AssertionError("projector expansion produced a non-"
                                 "Hermitian term")
        # the factor product runs over the lines in order, as one scalar
        # expectation would
        values[start:start + block] = np.where(exponent & 2, -1.0, 1.0) \
            * np.multiply.reduce(factors.take(index), axis=0)

    if factor is not None:
        values *= factor
    walsh_hadamard(values)
    values /= size
    return values
