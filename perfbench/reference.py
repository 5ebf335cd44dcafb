"""Fixed reference work, timed just before and just after every campaign.

The benchmark runs on a few cores of a shared host whose CPU speed swings
by up to 1.8x for seconds to minutes at a time, so a campaign's wall time
says as much about the host as about the program.  Dividing it by the time
of this fixed work, done just before and just after the campaign on the
same core, cancels most of the swing.  The work mixes the program's two
kinds of cost without calling the program: small Python objects with
integer bit operations, like a Pauli conjugation, and strided numpy
updates, like a statevector gate.

It must never change: a change to the program moves the ratio, while a
change here would move every baseline.
"""

from __future__ import annotations

import numpy as np


class _Pauli:
    __slots__ = ("x", "z", "sign")

    def __init__(self, x: int, z: int, sign: int):
        self.x, self.z, self.sign = x, z, sign


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cx(p: _Pauli, a: int, b: int) -> _Pauli:
    xa, zb = (p.x >> a) & 1, (p.z >> b) & 1
    sign = -p.sign if xa & zb else p.sign
    return _Pauli(p.x ^ (xa << b), p.z ^ (zb << a), sign)


def reference() -> int:
    """About 5 ms of fixed work on a typical core."""
    p = _Pauli(0b1011, 0b0110, 1)
    acc = 0
    for i in range(1500):
        p = _cx(p, i % 11, (i * 7 + 3) % 11)
        for line in _bits(p.x | p.z):
            acc += line
    state = np.ones(1 << 10, complex) / 32.0
    for i in range(40):
        view = state.reshape(-1, 2, 1 << (i % 9))
        state = (view[:, ::-1, :] * 0.5 + view * 0.5).reshape(-1)
    return acc
