"""Counter-keyed deterministic draws for the batched columnar shuffle pass.

The original per-node shuffle loop consumed one injected :class:`random.Random`
in ascending initiator-row order; vectorizing the pass makes that order-coupled
contract impossible to keep (a batched phase draws for every row at once, and
``random.Random`` has no batch API). The engine therefore keys every draw by
**position instead of order**: a draw's value is a pure function of

``(engine seed, round, phase tag, key)``

where the key is a row index (one draw per node) or ``row * V + slot`` (one draw
per view slot). The same splitmix64-style integer mix has a numpy form on
``uint64`` arrays with silent wraparound (the shuffle pass) and a scalar form
with explicit ``& MASK64`` (Gozar parent recruitment, and the sequential spec
the vector form is tested against), so a draw is the same bits either way and
independent of any evaluation order. The engine's 64-bit seed is taken from its
injected ``random.Random`` at construction, which keeps the repo-wide "one
injected RNG per component" custody rule intact.

Uniforms use the standard 53-bit construction ``(h >> 11) * 2**-53``; the
``uint64 -> float64`` conversion is exact below 2**53, so the vector and scalar
floats match bit for bit.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

#: Weyl-sequence increment (splitmix64's golden-ratio constant).
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Phase tags: every batched sub-phase draws from its own stream so no two
#: phases ever share a (round, key) cell.
TAG_TIE = 1          # partner-selection tie-break, keyed by row
TAG_REQ_PUB = 2      # request subset of the primary view, keyed by row*V+slot
TAG_REQ_PRIV = 3     # request subset of the private view (Croupier)
TAG_REPLY_PUB = 4    # reply subset of the partner's primary view, keyed by initiator
TAG_REPLY_PRIV = 5   # reply subset of the partner's private view (Croupier)
TAG_LOSS_REQ = 6     # request loss uniform, keyed by initiator row
TAG_LOSS_RESP = 7    # response loss uniform, keyed by initiator row
TAG_RELAY_REQ = 8    # Gozar: relay-parent choice for the request leg
TAG_RELAY_RESP = 9   # Gozar: relay-parent choice for the response leg
TAG_PARENT = 10      # Gozar: parent-recruitment candidate ranking


def mix64(value: int) -> int:
    """The splitmix64 finalizer over a masked 64-bit integer."""
    value &= MASK64
    value ^= value >> 30
    value = (value * _MIX1) & MASK64
    value ^= value >> 27
    value = (value * _MIX2) & MASK64
    return value ^ (value >> 31)


def stream(seed: int, round_index: int, tag: int) -> int:
    """The per-(round, phase) stream base all keyed draws of that phase add onto."""
    return mix64(seed ^ mix64(((round_index * GOLDEN) ^ tag) & MASK64))


def draw(base: int, key: int) -> int:
    """One 64-bit value at ``key`` on the stream ``base`` (scalar path)."""
    return mix64((base + key * GOLDEN) & MASK64)


def draw_uniform(base: int, key: int) -> float:
    """One float in [0, 1) at ``key`` (bit-identical to the numpy path)."""
    return (draw(base, key) >> 11) * 2.0 ** -53


def draws_np(np, base: int, keys):
    """Vector of 64-bit values for a ``uint64`` key array (numpy path).

    All arithmetic stays on uint64 *arrays* (scalar uint64 ops can warn on
    overflow; array ops wrap silently), mirroring :func:`draw` exactly.
    """
    x = np.uint64(base) + keys * np.uint64(GOLDEN)
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(_MIX1)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def uniforms_np(np, base: int, keys):
    """Vector of floats in [0, 1) — same bits as :func:`draw_uniform` per key."""
    return (draws_np(np, base, keys) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
