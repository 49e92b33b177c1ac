"""Calendar and timestamp helpers shared by the analytics modules.

Months are represented as plain ``(year, month)`` tuples so they sort and
hash naturally. Timestamps are naive UTC datetimes throughout.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Iterator

# Mean Gregorian month length in days, used for age binning.
DAYS_PER_MONTH = 30.44

Month = tuple[int, int]


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp or date into a naive UTC datetime.

    Raises ``ValueError`` for text that is no such timestamp, and for one
    whose UTC offset moves it out of the range of ``datetime``."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is not None:
        try:
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
        except OverflowError:
            raise ValueError(f"{text!r} in UTC is out of range") from None
    return dt


def month_of(dt: datetime) -> Month:
    return (dt.year, dt.month)


def month_start(month: Month) -> datetime:
    """First instant of a calendar month."""
    year, mon = month
    return datetime(year, mon, 1)


def next_month(month: Month) -> Month:
    year, mon = month
    if mon == 12:
        return (year + 1, 1)
    return (year, mon + 1)


def add_months(month: Month, n: int) -> Month:
    year, mon = month
    total = year * 12 + (mon - 1) + n
    return (total // 12, total % 12 + 1)


def month_index(month: Month) -> int:
    """Months since year 0, usable as a numeric regression axis."""
    return month[0] * 12 + (month[1] - 1)


def iter_months(first: Month, last: Month) -> Iterator[Month]:
    """Yield consecutive calendar months, both endpoints included."""
    if first > last:
        raise ValueError(f"inverted month range: {format_month(first)} > {format_month(last)}")
    cur = first
    while cur <= last:
        yield cur
        cur = next_month(cur)


def format_month(month: Month) -> str:
    return f"{month[0]:04d}-{month[1]:02d}"


def parse_month(text: str) -> Month:
    """Parse ``YYYY-MM`` or a full date, reduced to its calendar month."""
    raw = text.strip()
    parts = raw.split("-")
    if len(parts) == 2:
        return (int(parts[0]), _check_month_number(int(parts[1]), raw))
    dt = parse_timestamp(raw)
    return month_of(dt)


def parse_instant(text: str) -> datetime:
    """Parse a timestamp; a bare ``YYYY-MM`` expands to the month start."""
    raw = text.strip()
    parts = raw.split("-")
    if len(parts) == 2:
        return month_start((int(parts[0]), _check_month_number(int(parts[1]), raw)))
    return parse_timestamp(raw)


def _check_month_number(mon: int, raw: str) -> int:
    if not 1 <= mon <= 12:
        raise ValueError(f"invalid month in {raw!r}")
    return mon


def days_between(start: datetime, end: datetime) -> float:
    return (end - start) / timedelta(days=1)
