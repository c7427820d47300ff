import pytest

from torbwsim import units


@pytest.mark.parametrize("text,expected", [
    ("1 B", 1.0),
    ("25 MB", 25e6),
    ("25MB", 25e6),
    ("2.5 MB", 2.5e6),
    ("100 KB", 1e5),
    ("1 GB", 1e9),
    ("8 Kbit", 1000.0),
    ("1 Mbit", 125000.0),
    ("678 Gbit", 84.75e9),
    ("100 MB/s", 100e6),
    ("100MBps", 100e6),
])
def test_parse_rate_values(text, expected):
    assert units.parse_rate(text) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bad", [
    "678",          # bare number: the unit trap the parser exists to catch
    "25",
    "25 mb",        # case matters, suffixes are exact
    "25 MiB",
    "-5 MB",
    "MB",
    "",
    "25 MB extra",
    # float() of the number, or of it scaled to bytes, is inf
    pytest.param("9" * 400 + " MB", id="400-digit MB"),
    pytest.param("9" * 308 + " Gbit", id="308-digit Gbit"),
])
def test_parse_rate_rejects(bad):
    with pytest.raises(units.UnitError):
        units.parse_rate(bad)


def test_parse_rate_rejects_non_string():
    with pytest.raises(units.UnitError):
        units.parse_rate(25)


def test_bit_units_are_decimal():
    assert units.parse_rate("1 Gbit") == 1e9 / 8
    assert units.parse_rate("1000 Mbit") == units.parse_rate("1 Gbit")
