"""Signed Pauli operators and polynomial-time output probabilities.

A signed n-line Pauli is held as two bit masks (x, z) plus a sign of +/-1;
bit i of x/z encodes line i's factor via (x, z) -> {00: I, 10: X, 11: Y,
01: Z}.  Each measured Z is pulled back through the gates before it
(Heisenberg picture, Aaronson-Gottesman quant-ph/0406196) by
:class:`PauliFrame`, the one Clifford conjugation rule table: it holds
operators bit-sliced per line, so one backward sweep over N gates pulls
back every measured operator of a sequence, a few integer operations per
gate.  With per-line input expectations this gives output probabilities of
non-adaptive sequences on product inputs in time linear in circuit size.
The joint outcome table of a swept frame's k commuting operators
(:func:`outcome_table`, shared by the verifier and the simulated device)
reads every subset product off the frame's slices, operator j as bit j of
a cell: O(|U| * 2^k) for a union support of |U| lines in a fixed number of
array passes, plus the k passes of one Walsh-Hadamard transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import (MAGIC, Circuit, FixedSequence, Instruction,
                      InputState)

K_MAX = 10


@dataclass(frozen=True)
class PauliOperator:
    """sign * tensor product of I/X/Y/Z over n lines, Hermitian (sign +/-1)."""

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside the first n lines")

    @classmethod
    def z_on(cls, n: int, line: int) -> "PauliOperator":
        return cls(n, 0, 1 << line, 1)

    def bit(self, line: int) -> tuple[int, int]:
        return ((self.x >> line) & 1, (self.z >> line) & 1)

    @property
    def support(self) -> int:
        return self.x | self.z


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    def operators(self, count: int) -> list[PauliOperator]:
        """Operators 0..count-1 as PauliOperators."""
        x, z = [0] * count, [0] * count
        for slices, out in ((self.xs, x), (self.zs, z)):
            for line in self.touched:
                held = slices[line]
                while held:
                    low = held & -held
                    out[low.bit_length() - 1] |= 1 << line
                    held ^= low
        return [PauliOperator(self.n_lines, x[i], z[i],
                              -1 if (self.signs >> i) & 1 else 1)
                for i in range(count)]


def expectation(p: PauliOperator, inputs: Sequence[InputState]) -> float:
    """<p> on the product state `inputs`, reading `inputs[line].bloch()`
    on p's support lines only; identity lines give 1."""
    if p.n != len(inputs):
        raise ValueError("operator and input sizes differ")
    value = float(p.sign)
    for line in _bits(p.support):
        xb, zb = p.bit(line)
        ex, ey, ez = inputs[line].bloch()
        value *= ey if (xb and zb) else (ex if xb else ez)
    return value


def backpropagate(seq: Circuit, line: int,
                  at: int | None = None) -> PauliOperator:
    """U^dagger Z_line U for the unitary part of seq.instructions[:at].

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
    return pull_back(PauliOperator.z_on(seq.n_lines, line),
                     seq.instructions[:at])


def pull_back(p: PauliOperator,
              instructions: Sequence[Instruction]) -> PauliOperator:
    """U^dagger p U for the unitary part U of `instructions`; MEASURE and
    ID are skipped."""
    frame = PauliFrame(p.n)
    for line in _bits(p.support):
        frame.xs[line], frame.zs[line] = p.bit(line)
        frame.touched.add(line)
    frame.signs = int(p.sign < 0)
    for _ in frame.sweep(instructions, {}):
        pass
    return frame.operators(1)[0]


def single_output_probability(seq: FixedSequence, outcome: int) -> float:
    """P(output bit = outcome) for a valid fixed sequence on its inputs.

    Intermediate measurements are omitted outright; on no-reuse sequences
    they cannot influence the reduced state of the remaining lines.
    """
    value = expectation(backpropagate(seq, seq.output_line), seq.inputs)
    if outcome:
        value = -value
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
