"""Eager maintenance of the sample kinds, from scratch.

The reference ``test_prop_kinds.py`` proves deferred maintenance
against, and the uniform reservoir's batched skip walk is checked
against.  It is written apart from :mod:`repro.core.kinds` and
:mod:`repro.core.reservoir` -- plain Python over lists, no ``heapq``, no
numpy, no import but :mod:`math` (a test parses this file to keep it that
way) -- so a fault in the kinds' key, acceptance or victim code cannot
hide in the oracle as well.  ``rng`` is any object with the methods an
oracle calls.

Each arrival is applied on the spot, in stream order:

* **uniform** (Algorithm R): the first ``M`` arrivals fill slots
  ``0..M-1``; arrival ``t`` (1-based over the whole stream) is accepted
  when ``rng.random() * t < M`` and displaces slot ``rng.randrange(M)``.
  :func:`skip_walk` makes the same decisions from Vitter skips, one
  arrival at a time, as the reservoir sampler draws them.

* **weighted** (A-ES): the record of value ``v`` draws one uniform ``u``
  and gets the key ``-log(1 - u) / (1 + v % mod)``.  The first ``M``
  records fill slots ``0..M-1``; each later one displaces the slot with
  the largest key, the lowest such slot on ties, when its key is
  smaller.  The threshold is the largest key kept.
* **window**: the last ``W`` values, the value of sequence ``seq`` in
  slot ``seq % W`` as ``(value, seq)``.
"""

import math

#: The weight modulus of a ``weighted`` spec without one.
DEFAULT_WEIGHT_MOD = 16


def algorithm_r(capacity, seen, arrivals, rng):
    """The ``(index, slot)`` of each of ``arrivals`` arrivals after ``seen``
    that Algorithm R places, ``index`` counting from 0 within them."""
    placed = []
    for index in range(arrivals):
        seen += 1
        if seen <= capacity:
            placed.append((index, seen - 1))
        elif rng.random() * seen < capacity:
            placed.append((index, rng.randrange(capacity)))
    return placed


def skip_walk(capacity, seen, pending, arrivals, rng, slots=True):
    """``(placed, seen, pending)`` after ``arrivals`` arrivals, one at a time.

    While ``seen < capacity`` an arrival fills the next slot.  Past that,
    an arrival that finds no accept ``pending`` first draws a skip
    ``rng.reservoir_skip(capacity, seen)``, ``seen`` counting the arrivals
    before it: the arrival ``skip + 1`` places on is accepted.  Each
    accepted arrival is placed as ``(index, slot)`` with its victim slot
    ``rng.randrange(capacity)`` drawn at once, or, without ``slots``, as
    its ``index`` alone.
    """
    placed = []
    for index in range(arrivals):
        if seen < capacity:
            placed.append((index, seen) if slots else index)
            seen += 1
            continue
        if pending is None:
            pending = seen + rng.reservoir_skip(capacity, seen) + 1
        seen += 1
        if seen == pending:
            pending = None
            placed.append((index, rng.randrange(capacity)) if slots else index)
    return placed, seen, pending


def victim(keys, key):
    """The slot a record of ``key`` displaces from ``keys``, or None."""
    slot = min(range(len(keys)), key=lambda s: (-keys[s], s))
    return slot if key < keys[slot] else None


def weighted(capacity, mod, stream, rng):
    """``(rows, seen, threshold)`` after eager A-ES over ``stream``."""
    rows = []
    for value in stream:
        key = -math.log(1 - rng.random()) / (1 + value % mod)
        if len(rows) < capacity:
            rows.append((value, key))
            continue
        slot = victim([k for _, k in rows], key)
        if slot is not None:
            rows[slot] = (value, key)
    return rows, len(stream), max(k for _, k in rows)


def window(capacity, stream):
    """``(rows, seen, None)``: the last ``capacity`` values of ``stream``."""
    rows = [None] * capacity
    for seq in range(max(0, len(stream) - capacity), len(stream)):
        rows[seq % capacity] = (stream[seq], seq)
    return rows, len(stream), None


def eager(spec, capacity, stream, rng):
    """``(rows, seen, threshold)`` of a kind spec's eager sample of
    ``stream`` (``threshold`` None for a window); ``rng`` is any object
    with a ``random()`` method."""
    name, _, param = spec.partition(":")
    if name == "weighted":
        return weighted(capacity, int(param) if param else DEFAULT_WEIGHT_MOD, stream, rng)
    if name == "window" and not param:
        return window(capacity, stream)
    raise ValueError(f"no oracle for sample kind {spec!r}")
