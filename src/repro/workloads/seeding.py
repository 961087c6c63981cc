"""Exact batched child seeding: numpy's per-rank PCG64 start states.

:meth:`Workload.shard` — the definition — seeds rank ``r`` with
``default_rng(SeedSequence(seed, spawn_key=(r,)))``: two Cython objects,
a ``Generator`` and an ``errstate`` context per rank, ≈ 11 µs before the
first key is drawn.  :func:`child_states` computes the PCG64
``(state, inc)`` that construction ends in for an array of ranks at
once, so :meth:`Workload.shards` can drive *one* generator through a
block of ranks by assigning ``bit_generator.state``.

Exactness audit (``numpy/random/bit_generator.pyx``, unchanged since
1.19's spawn-key padding fix; every intermediate is a uint32 that wraps):

* **Entropy words.**  ``SeedSequence(seed, spawn_key=(r,))`` assembles
  ``seed`` as little-endian uint32 words (``0`` is the one word ``0``),
  zero-padded to the pool size 4 *because a spawn key is present*,
  followed by the spawn key's words — for ``0 <= r < 2**32`` the single
  word ``r``.  The rank is therefore the **last** entropy word whatever
  the seed's width, and everything before it depends on the seed alone.
* **``hashmix(v)``** — ``v ^= c; c *= 0x931e8875; v *= c; v ^= v >> 16``
  with one constant ``c`` that starts at ``0x43b0d7e5`` and advances on
  every call, so the *i*-th call of a pool set-up multiplies by
  ``0x43b0d7e5 * 0x931e8875**i``.
* **``mix(x, y)``** — ``z = 0xca01f9dd * x - 0x4973f715 * y;
  z ^= z >> 16``.
* **Pool set-up.**  Four ``hashmix`` fill the pool from the first four
  words; the 12 ordered pairs ``src != dst`` do ``pool[dst] =
  mix(pool[dst], hashmix(pool[src]))``; every further word ``w`` does
  ``pool[dst] = mix(pool[dst], hashmix(w))`` for ``dst = 0..3`` — four
  ``hashmix`` calls with four successive constants.  Up to the rank word
  this is scalar work, done once per seed in Python ints
  (:func:`_seed_pool`); the rank word's 4 ``hashmix`` + 4 ``mix`` are
  uint32 array operations over all ranks.
* **``generate_state(4, uint64)``** — eight words ``v = pool[i % 4] ^ c;
  c *= 0x58f38ded; v *= c; v ^= v >> 16`` with ``c`` starting at
  ``0x8b51f9dd``, paired little-endian: ``u[j] = v[2j] | v[2j+1] << 32``.
* **PCG64 seeding** (``pcg64_set_seed`` → ``pcg_setseq_128_srandom_r``):
  ``initstate = u[0] << 64 | u[1]``, ``initseq = u[2] << 64 | u[3]``,
  ``inc = initseq << 1 | 1``, and two LCG steps around adding the seed:
  ``state = (inc + initstate) * M + inc`` with the 128-bit multiplier
  ``M = 0x2360ED051FC65DA44385DF649FCCF645``, all mod 2**128.  Python
  ints carry the 128-bit step; it is two multiplications a rank.

None of this is *assumed* to match the installed numpy:
:func:`matches_numpy` compares a handful of ``(seed, rank)`` pairs with
``PCG64(SeedSequence(...)).state`` once per process, and
``Workload.shards`` sends every rank through ``Workload.shard`` if a
numpy release ever disagrees.  ``tests/test_workloads.py::
TestBatchedSeeding`` and CI's flat-smoke job check far more pairs.
"""

from __future__ import annotations

import logging
from functools import cache
from typing import Sequence

import numpy as np
from numpy.random import PCG64, SeedSequence

__all__ = ["child_states", "matches_numpy"]

#: ``SeedSequence``'s default pool: four uint32 words.
_POOL_SIZE = 4

_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1

#: A child of the service's ``sdssort`` root, so a daemon's log
#: configuration carries the warning; a bare library prints it.
log = logging.getLogger("sdssort.workloads.seeding")


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """Pool and hash constant after every entropy word but the rank.

    Scalar twin of ``SeedSequence.mix_entropy`` stopped one word early.
    """
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    words += [0] * (_POOL_SIZE - len(words))
    c = _INIT_A

    def hashmix(v: int) -> int:
        nonlocal c
        v ^= c
        c = c * _MULT_A & _M32
        v = v * c & _M32
        return v ^ v >> _XSHIFT

    def mix(x: int, y: int) -> int:
        z = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return z ^ z >> _XSHIFT

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    return pool, c


def child_states(seed: int, ranks: Sequence[int] | np.ndarray
                 ) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=(r,)))``
    for every ``r`` in ``ranks``.

    ``seed`` is a non-negative ``int`` of any width; every rank must be
    in ``[0, 2**32)`` — a wider rank is two spawn-key words, which this
    does not model (callers check; see ``Workload.shards``).
    """
    pool, c = _seed_pool(seed)
    r = np.asarray(ranks, dtype=np.uint32)
    u32 = np.uint32
    shift = u32(_XSHIFT)
    mixed = []
    for word in pool:  # the rank word: 4 hashmix + 4 mix, all ranks
        v = r ^ u32(c)
        c = c * _MULT_A & _M32
        v *= u32(c)
        v ^= v >> shift
        v *= u32(_MIX_MULT_R)
        v = u32(_MIX_MULT_L * word & _M32) - v
        v ^= v >> shift
        mixed.append(v)
    halves = []
    c = _INIT_B
    for i in range(2 * _POOL_SIZE):  # generate_state(4, uint64)
        v = mixed[i % _POOL_SIZE] ^ u32(c)
        c = c * _MULT_B & _M32
        v *= u32(c)
        v ^= v >> shift
        halves.append(v.astype(np.uint64))
    high = np.uint64(32)
    u = [(halves[2 * j] | halves[2 * j + 1] << high).tolist()
         for j in range(_POOL_SIZE)]
    out = []
    for u0, u1, u2, u3 in zip(*u):  # pcg_setseq_128_srandom_r
        inc = ((u2 << 64 | u3) << 1 | 1) & _M128
        out.append((((inc + (u0 << 64 | u1)) * _PCG_MULT + inc) & _M128,
                    inc))
    return out


#: ``(seed, rank)`` pairs of the once-per-process check: every seed
#: width class (one word, four, more than four) and both rank extremes.
_PROBES = ((0, 0), (1, 1), (123456789, 4095), (2**32 + 1, 65535),
           (2**127 + 3, 2**31), (2**200 + 9, 2**32 - 1))


@cache
def matches_numpy() -> bool:
    """Whether :func:`child_states` reproduces the installed numpy.

    Checked once per process (≈ 50 µs); a disagreement is logged once
    and turns the batched route off for the life of the process.
    """
    for seed, rank in _PROBES:
        want = PCG64(SeedSequence(seed, spawn_key=(rank,))).state["state"]
        if child_states(seed, [rank]) != [(want["state"], want["inc"])]:
            log.warning(
                "batched child seeding disagrees with numpy %s at "
                "(seed=%d, rank=%d): every shard goes through "
                "Workload.shard", np.__version__, seed, rank)
            return False
    return True
