"""Row-key byte encoding.

HBase orders rows lexicographically by raw bytes, so every key the
platform composes must sort correctly *as bytes*.  These helpers encode
integers big-endian (so numeric order equals byte order), support
descending order for newest-first time indexes, and compose/split the
multi-part keys the repositories use (``user␟timestamp␟poi`` and
friends).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import ValidationError

#: Separator for composite keys.  0x1F (unit separator) never appears in
#: the platform's identifier alphabet, so splits are unambiguous.
KEY_SEPARATOR = b"\x1f"

_INT_WIDTH = 8
_INT_MAX = (1 << (8 * _INT_WIDTH)) - 1


def encode_int(value: int, width: int = _INT_WIDTH) -> bytes:
    """Encode a non-negative int as fixed-width big-endian bytes.

    Fixed width + big-endian makes byte order equal numeric order, which
    row-range scans over timestamps depend on.
    """
    if value < 0:
        raise ValidationError("cannot byte-encode negative int %r" % value)
    try:
        return value.to_bytes(width, "big")
    except OverflowError:
        raise ValidationError(
            "%r does not fit in %d bytes" % (value, width)
        ) from None


def decode_int(data: bytes) -> int:
    """Inverse of :func:`encode_int`."""
    return int.from_bytes(data, "big")


def encode_int_desc(value: int, width: int = _INT_WIDTH) -> bytes:
    """Encode an int so that *larger* values sort *first*.

    Used for newest-first time indexes: scanning forward returns the most
    recent visits, matching the trending-events access pattern.
    """
    if value < 0:
        raise ValidationError("cannot byte-encode negative int %r" % value)
    max_for_width = (1 << (8 * width)) - 1
    if value > max_for_width:
        raise ValidationError("%r does not fit in %d bytes" % (value, width))
    return (max_for_width - value).to_bytes(width, "big")


def decode_int_desc(data: bytes) -> int:
    """Inverse of :func:`encode_int_desc`."""
    max_for_width = (1 << (8 * len(data))) - 1
    return max_for_width - int.from_bytes(data, "big")


def compose_key(*parts) -> bytes:
    """Join key parts with the separator byte.

    Parts may be ``bytes`` (used verbatim) or ``str`` (UTF-8 encoded).
    Integer parts must be pre-encoded by the caller — implicit encoding
    would hide the fixed-width decision that makes ordering correct.
    """
    encoded: List[bytes] = []
    for part in parts:
        if isinstance(part, bytes):
            encoded.append(part)
        elif isinstance(part, str):
            encoded.append(part.encode("utf-8"))
        else:
            raise ValidationError(
                "key parts must be bytes or str, got %r" % type(part).__name__
            )
    return KEY_SEPARATOR.join(encoded)


def split_key(key: bytes) -> List[bytes]:
    """Split a composite key back into its parts."""
    return key.split(KEY_SEPARATOR)


def next_prefix(prefix: bytes) -> bytes:
    """Smallest byte string greater than every string with this prefix.

    Classic HBase prefix-scan trick: scan ``[prefix, next_prefix(prefix))``.
    Returns ``b""`` (meaning "no upper bound") if the prefix is all 0xFF.
    """
    data = prefix.rstrip(b"\xff")
    return data[:-1] + bytes((data[-1] + 1,)) if data else b""


def uniform_split_points(num_regions: int, width: int = 2) -> List[bytes]:
    """Split points that cut the key space into ``num_regions`` uniform
    byte ranges — the equivalent of HBase's pre-splitting at creation.

    The points are ``width``-byte prefixes; row keys that should spread
    across regions (e.g. hashed user prefixes) start with bytes drawn
    uniformly from the same space.
    """
    if num_regions < 1:
        raise ValidationError("num_regions must be >= 1")
    space = 1 << (8 * width)
    return [
        encode_int(space * i // num_regions, width)
        for i in range(1, num_regions)
    ]


#: How many distinct 2-byte salts the key space has.
SALTS = 1 << 16


def salt_int(identifier: int, width: int = 2) -> int:
    """Deterministic key salt spreading an id uniformly over regions.

    A Fibonacci-hash of the id, truncated to ``width`` bytes.  Salting
    the row key's first bytes is how the Visits table keeps every region
    busy during a multi-friend query (paper Section 2.2).
    """
    h = (identifier * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    return h >> (64 - 8 * width)


def salt_for(identifier: int, width: int = 2) -> bytes:
    """:func:`salt_int` as the key bytes a row starts with."""
    return encode_int(salt_int(identifier, width), width)


def whole_salts(start: Optional[bytes], end: Optional[bytes]) -> range:
    """The 2-byte salts all of whose rows lie in ``[start, end)`` (None:
    unbounded).  A key longer than two bytes cuts the salt it starts
    with: that salt lies whole on neither side of it."""
    lo = 0 if start is None else _salts_below(start) + (len(start) > 2)
    hi = SALTS if end is None else _salts_below(end)
    return range(lo, max(lo, hi))


def _salts_below(key: bytes) -> int:
    return int.from_bytes(key[:2].ljust(2, b"\0"), "big")
