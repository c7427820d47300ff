"""Bandwidth unit handling.

All internal arithmetic is in bytes/second. Anything user-facing (CLI flags,
JSON configs) carries an explicit unit suffix; bare numbers are rejected so
that decimal-vs-binary and bit-vs-byte mixups fail loudly at the boundary.
"""

import re

# decimal prefixes, networking convention; bit suffixes divide by 8
BYTES_PER_SECOND = {
    "B": 1.0,
    "KB": 1e3,
    "MB": 1e6,
    "GB": 1e9,
    "Kbit": 1e3 / 8,
    "Mbit": 1e6 / 8,
    "Gbit": 1e9 / 8,
}

MIB = 2 ** 20
GIB = 2 ** 30

_RATE_RE = re.compile(
    r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(B|KB|MB|GB|Kbit|Mbit|Gbit)(?:/s|ps)?\s*$"
)


class UnitError(ValueError):
    pass


def parse_rate(text: str) -> float:
    """Parse a bandwidth string like '100MB' or '678Gbit' into bytes/second.

    Accepts an optional '/s' or 'ps' trailer; the per-second part is implied
    either way. Raises UnitError for bare numbers or unknown suffixes.
    """
    if isinstance(text, (int, float)):
        raise UnitError(
            "bare number %r: bandwidth values need a unit suffix "
            "(B, KB, MB, GB, Kbit, Mbit, Gbit)" % (text,)
        )
    m = _RATE_RE.match(text)
    if not m:
        raise UnitError(
            "cannot parse bandwidth %r: expected <number><suffix> with suffix "
            "one of B, KB, MB, GB, Kbit, Mbit, Gbit" % (text,)
        )
    value, suffix = m.groups()
    rate = float(value) * BYTES_PER_SECOND[suffix]
    if rate <= 0:
        raise UnitError("bandwidth must be positive, got %r" % (text,))
    return rate
