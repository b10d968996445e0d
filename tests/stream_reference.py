"""Word-level reference draws of an ``EntropyStream``, one word at a time.

Built from ``raw_u64`` and scalar ``box_muller`` (``math``, libm) alone, so a
test that compares a block draw with it does not compare the block path with
itself.
"""

from entropy_roofline.distribution_shaping import box_muller
from entropy_roofline.entropy_sources import raw_u64


def ref_uniform(seed, stream_id, i):
    """Word ``i`` of stream ``(seed, stream_id)`` as a uniform double in [0, 1), from its top 53 bits."""
    return (raw_u64(seed, stream_id, i) >> 11) * 2.0 ** -53


def ref_normal(seed, stream_id, i):
    """The standard normal of words ``i`` and ``i + 1``: Box-Muller's cosine
    branch, the first word mapped to (0, 1] by u -> 1 - u."""
    return box_muller(1.0 - ref_uniform(seed, stream_id, i), ref_uniform(seed, stream_id, i + 1))[0]


def ref_draws(seed, stream_id, start, normal, p):
    """The draws ``next_block(normal, p)`` makes from word ``start``, and the
    word after them: a normal where ``normal[i]``, else ``float(u < p[i])``."""
    draws, pos = [], start
    for is_normal, q in zip(normal, p):
        if is_normal:
            draws.append(ref_normal(seed, stream_id, pos))
            pos += 2
        else:
            draws.append(float(ref_uniform(seed, stream_id, pos) < q))
            pos += 1
    return draws, pos
