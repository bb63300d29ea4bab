#!/usr/bin/env python3
"""Prints the jump polynomial that advances xoshiro256 (common/rng.h) by
D draws, as the four words Rng::Jump takes.

Usage: scripts/xoshiro_jump.py D

The state update is linear over GF(2), so advancing by D steps is a
polynomial in the one-step map T: T^D = sum_k c_k T^k, k < 256, where
c(x) = x^D mod the characteristic polynomial. The script finds c by
solving sum_k c_k T^k s = T^D s for one state s; the Krylov vectors T^k s
span the whole space because that polynomial is primitive, so the
solution is unique and holds for every state. It steps D times, so D up
to a few million runs in seconds.
"""

import sys

MASK = (1 << 64) - 1


def step(s):
    s0, s1, s2, s3 = s
    t = (s1 << 17) & MASK
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = ((s3 << 45) | (s3 >> 19)) & MASK
    return (s0, s1, s2, s3)


def pack(s):
    return s[0] | s[1] << 64 | s[2] << 128 | s[3] << 192


def jump_poly(d):
    s = (0x0123456789ABCDEF, 0xFEDCBA9876543210,
         0x0F1E2D3C4B5A6978, 0x8796A5B4C3D2E1F0)
    krylov = []
    x = s
    for _ in range(256):
        krylov.append(pack(x))
        x = step(x)
    x = s
    for _ in range(d):
        x = step(x)
    # Gaussian elimination over GF(2); `combo` tracks which powers of T
    # make up each reduced vector.
    pivots = {}
    for k, vec in enumerate(krylov):
        combo = 1 << k
        for bit in sorted(pivots, reverse=True):
            if vec >> bit & 1:
                vec ^= pivots[bit][0]
                combo ^= pivots[bit][1]
        if vec == 0:
            sys.exit("Krylov vectors are dependent; pick another state")
        pivots[vec.bit_length() - 1] = (vec, combo)
    vec, combo = pack(x), 0
    for bit in sorted(pivots, reverse=True):
        if vec >> bit & 1:
            vec ^= pivots[bit][0]
            combo ^= pivots[bit][1]
    assert vec == 0
    return [(combo >> (64 * i)) & MASK for i in range(4)]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    words = jump_poly(int(sys.argv[1]))
    print(", ".join("0x%016x" % w for w in words))


if __name__ == "__main__":
    main()
