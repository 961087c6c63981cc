"""Exact batched child seeding and streams: numpy's per-rank PCG64.

:meth:`Workload.shard` — the definition — seeds rank ``r`` with
``default_rng(SeedSequence(seed, spawn_key=(r,)))``: two Cython objects,
a ``Generator`` and an ``errstate`` context per rank, ≈ 11 µs before the
first key is drawn.  This module computes what that construction and
its first draws end in for an array of ranks at once:

* :func:`child_states` — the PCG64 ``(state, inc)`` of every rank, so
  :meth:`Workload.shards` can drive *one* generator through a block of
  ranks by assigning ``bit_generator.state``;
* :func:`child_uniforms` — the first ``n`` doubles of every rank's
  ``Generator.random`` stream as one ``(ranks, n)`` array, in lockstep:
  no generator, no per-rank state assignment.

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
  ``M = 0x2360ED051FC65DA44385DF649FCCF645``, all mod 2**128.
* **The stream** (``pcg64_next64`` = ``pcg_setseq_128_xsl_rr_64_random_r``)
  steps *first*, ``state = state * M + inc``, then outputs the new
  state's XSL-RR: ``rotr64(hi ^ lo, hi >> 58)``.  ``Generator.random``
  fills float64 with ``next_double`` = ``(next64 >> 11) * 2**-53``, one
  64-bit draw per double and no buffered half-word.
* **Jump constants.**  Seeding and draws are one affine map: with
  ``A_k = M**k`` and ``C_k = sum(M**j for j < k)`` (mod 2**128), the
  state after seeding and ``k >= 0`` draws is ``A_{k+1} * initstate +
  C_{k+2} * inc`` — seeding itself is ``M * initstate + (1 + M) * inc``,
  and each step maps ``A_j s + C_j inc`` to ``A_{j+1} s + C_{j+1} inc``.
  :func:`_coefficients` builds the pairs for ``k = 0..n`` in Python ints,
  once per ``(n, M)``; ``k = 0`` is :func:`child_states`' tail, ``k =
  1..n`` the stream's draws.
* **Limb arithmetic.**  A 128-bit value is two uint64 limbs ``(hi,
  lo)``; ``x * y mod 2**128`` is ``lo(xl * yl)`` and ``hi(xl * yl) + xh
  * yl + xl * yh`` (wrapping), with the 64×64 → 128 product of the low
  limbs from four 32×32-bit partial products whose middle column sums
  three values below ``2**32``.  Every shift count is a constant
  ``1, 11, 32, 58, 63`` or a rotation ``rot`` and ``(-rot) & 63``, both
  in ``[0, 63]``: no shift reaches 64, where C and numpy disagree.
  ``(next64 >> 11)`` is below ``2**53``, so its float64 conversion and
  the product with ``2**-53`` are exact.

None of this is *assumed* to match the installed numpy:
:func:`matches_numpy` compares a handful of ``(seed, rank)`` pairs with
``PCG64(SeedSequence(...)).state`` and with the first doubles of
``Generator.random`` once per process, and ``Workload.shards`` sends
every rank through ``Workload.shard`` if a numpy release ever
disagrees.  ``tests/test_workloads.py::TestBatchedSeeding`` and CI's
flat-smoke job check far more pairs.
"""

from __future__ import annotations

import logging
from functools import cache, lru_cache
from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

__all__ = ["child_states", "child_uniforms", "matches_numpy"]

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
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

_U1 = np.uint64(1)
_U32 = np.uint64(32)
_U63 = np.uint64(63)
_U64_LO = np.uint64(_M32)
_ROT_SHIFT = np.uint64(58)
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_SCALE = 2.0**-53

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


def _generate_state(seed: int, ranks: Sequence[int] | np.ndarray
                    ) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(r,)).generate_state(4, uint64)``
    for every ``r`` in ``ranks``: a ``(4, len(ranks))`` uint64 array."""
    pool, c = _seed_pool(seed)
    hashes = [c]                    # the rank word's 4 hashmix constants
    for _ in range(_POOL_SIZE):
        hashes.append(hashes[-1] * _MULT_A & _M32)
    states = [_INIT_B]              # generate_state's 8 word constants
    for _ in range(2 * _POOL_SIZE):
        states.append(states[-1] * _MULT_B & _M32)

    def column(values: list[int]) -> np.ndarray:
        return np.array(values, dtype=np.uint32)[:, None]

    shift = np.uint32(_XSHIFT)
    # row ``dst``: mix(pool[dst], hashmix(rank)), all ranks at once
    v = np.asarray(ranks, dtype=np.uint32) ^ column(hashes[:-1])
    v *= column(hashes[1:])
    v ^= v >> shift
    v *= np.uint32(_MIX_MULT_R)
    v = column([_MIX_MULT_L * w & _M32 for w in pool]) - v
    v ^= v >> shift
    # generate_state(4, uint64): word i hashes pool[i % 4]
    v = np.tile(v, (2, 1)) ^ column(states[:-1])
    v *= column(states[1:])
    v ^= v >> shift
    v = v.astype(np.uint64)
    return v[0::2] | v[1::2] << _U32


def _limbs(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(hi, lo, lo & 0xFFFFFFFF, lo >> 32)``: a 128-bit operand of
    :func:`_mul128`."""
    return hi, lo, lo & _U64_LO, lo >> _U32


@lru_cache(maxsize=8)
def _coefficients(n: int, mult: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Limbs of ``A_{k+1}`` and ``C_{k+2}`` for ``k = 0..n`` under the
    multiplier ``mult``: the state after seeding and ``k`` draws is
    ``A_{k+1} * initstate + C_{k+2} * inc``."""
    a, c = mult, 1 + mult                           # A_1, C_2
    coefs = []
    for _ in range(n + 1):
        coefs.append((a >> 64, a & _M64, c >> 64, c & _M64))
        a = a * mult & _M128                        # A_{k+2} = M * A_{k+1}
        c = (c + a) & _M128                         # C_{k+3} = C_{k+2} + A_{k+2}
    table = np.array(coefs, dtype=np.uint64).T
    table.flags.writeable = False
    return _limbs(table[0], table[1]), _limbs(table[2], table[3])


def _mul128(x: tuple[np.ndarray, ...], y: tuple[np.ndarray, ...]
            ) -> tuple[np.ndarray, np.ndarray]:
    """``x * y mod 2**128`` as ``(hi, lo)`` uint64 limbs; ``x`` and
    ``y`` come from :func:`_limbs` and broadcast against each other."""
    xh, xl, x0, x1 = x
    yh, yl, y0, y1 = y
    mid = x0 * y0
    mid >>= _U32
    t = x0 * y1
    hi = t >> _U32
    t &= _U64_LO
    mid += t
    np.multiply(x1, y0, out=t)
    mid += t & _U64_LO
    t >>= _U32
    hi += t
    mid >>= _U32                                    # carry into hi
    hi += mid
    for u, v in ((x1, y1), (xh, yl), (xl, yh)):
        np.multiply(u, v, out=t)
        hi += t
    np.multiply(xl, yl, out=t)
    return hi, t


def _pcg_seed(u: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """``(initstate, inc)`` limbs of the ``generate_state`` words ``u``
    (``u[0..3]``, any trailing shape)."""
    inc_hi = u[2] << _U1 | u[3] >> _U63
    inc_lo = u[3] << _U1 | _U1
    return _limbs(u[0], u[1]), _limbs(inc_hi, inc_lo)


def _lcg(coefs: tuple[tuple[np.ndarray, ...], ...],
         seed: tuple[tuple[np.ndarray, ...], ...]
         ) -> tuple[np.ndarray, np.ndarray]:
    """``A * initstate + C * inc mod 2**128`` as ``(hi, lo)`` limbs, for
    :func:`_coefficients` ``(A, C)`` and :func:`_pcg_seed`
    ``(initstate, inc)`` (broadcast against each other)."""
    (a, c), (initstate, inc) = coefs, seed
    hi, lo = _mul128(a, initstate)
    c_hi, c_lo = _mul128(c, inc)
    lo += c_lo
    hi += c_hi
    hi += lo < c_lo                                 # carry
    return hi, lo


def child_states(seed: int, ranks: Sequence[int] | np.ndarray
                 ) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=(r,)))``
    for every ``r`` in ``ranks``.

    ``seed`` is a non-negative ``int`` of any width; every rank must be
    in ``[0, 2**32)`` — a wider rank is two spawn-key words, which this
    does not model (callers check; see ``Workload.shards``).
    """
    seeded = _pcg_seed(_generate_state(seed, ranks))
    hi, lo = _lcg(_coefficients(0, _PCG_MULT), seeded)
    inc_hi, inc_lo = seeded[1][:2]
    return [(h << 64 | l, ih << 64 | il) for h, l, ih, il
            in zip(hi.tolist(), lo.tolist(), inc_hi.tolist(),
                   inc_lo.tolist())]


def child_uniforms(seed: int, ranks: Sequence[int] | np.ndarray,
                   n: int) -> np.ndarray:
    """Row ``i`` is ``Generator(PCG64(SeedSequence(seed,
    spawn_key=(ranks[i],)))).random(n)``: a C-contiguous ``(len(ranks),
    n)`` float64 array.

    Same domain as :func:`child_states`; ``n`` is an ``int >= 0``.  The
    work is about 40 uint64 array passes over ``len(ranks) * n``
    elements, so per key it costs more than ``Generator.random``: the
    route pays off for short streams, where a generator's per-rank
    set-up dominates.
    """
    a, c = _coefficients(n, _PCG_MULT)
    draws = tuple(x[1:] for x in a), tuple(x[1:] for x in c)
    hi, lo = _lcg(draws, _pcg_seed(_generate_state(seed, ranks)[:, :, None]))
    rot = hi >> _ROT_SHIFT                          # XSL-RR
    hi ^= lo
    np.right_shift(hi, rot, out=lo)
    np.negative(rot, out=rot)
    rot &= _U63
    hi <<= rot
    hi |= lo
    hi >>= _DOUBLE_SHIFT                            # next_double
    return hi * _DOUBLE_SCALE


#: ``(seed, rank)`` pairs of the once-per-process check: every seed
#: width class (one word, four, more than four) and both rank extremes.
_PROBES = ((0, 0), (1, 1), (123456789, 4095), (2**32 + 1, 65535),
           (2**127 + 3, 2**31), (2**200 + 9, 2**32 - 1))

#: Doubles of each probe's stream the check compares.
_PROBE_DRAWS = 16


@cache
def matches_numpy() -> bool:
    """Whether :func:`child_states` and :func:`child_uniforms` reproduce
    the installed numpy.

    Checked once per process (≈ 2 ms); a disagreement is logged once
    and turns both batched routes off for the life of the process.
    """
    for seed, rank in _PROBES:
        bit_generator = PCG64(SeedSequence(seed, spawn_key=(rank,)))
        want = bit_generator.state["state"]
        draws = Generator(bit_generator).random(_PROBE_DRAWS)
        if (child_states(seed, [rank]) != [(want["state"], want["inc"])]
                or child_uniforms(seed, [rank], _PROBE_DRAWS).tobytes()
                != draws.tobytes()):
            log.warning(
                "batched child seeding disagrees with numpy %s at "
                "(seed=%d, rank=%d): every shard goes through "
                "Workload.shard", np.__version__, seed, rank)
            return False
    return True
