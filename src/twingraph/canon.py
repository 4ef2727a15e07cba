"""Canonical renderings: decimals, UTC timestamps, and single-line JSON.

Every byte that reaches a serialized artifact (graph text, payload, event
log) funnels through these helpers so equal values always render equally.
Renderings come from the standard library's own formatters, so they are
exact whatever the decimal context. Each JSON value is rendered by the encoder
of its exact type, so a str or int inside a record costs one C call. An object
of fixed keys fills a %-template that object_template builds once; a log line's
holds its kind and LF, and runtime.render_log fills it in one %, as
runtime.make_signal fills the signal payload's.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timedelta, timezone
from decimal import Decimal


def canonical_decimal(value: Decimal) -> str:
    """Minimal plain decimal string: no exponent, no trailing zeros, no -0. A
    value that is no Decimal is a TypeError, a subclass renders as a Decimal."""
    text = str(value) if type(value) is Decimal else Decimal.__str__(value)  # not a subclass's
    if not value.is_finite():
        raise ValueError(f"not a finite decimal: {value}")
    if "E" in text or "e" in text:  # str's exponent form; the context's capitals pick the case
        text = format(value, "f")
    text = text.rstrip("0").rstrip(".") if "." in text else text
    return "0" if text == "-0" else text


_DECIMAL_RE = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)")


def parse_decimal(text: str) -> Decimal:
    """Parse a plain decimal numeral (optional sign, no exponent, ASCII digits)."""
    if not _DECIMAL_RE.fullmatch(text):
        raise ValueError(f"not a plain decimal numeral: {text!r}")
    return Decimal(text)


_FRACTION_RE = re.compile(r"\.([0-9]+)(?=[Z+\-]|$)")


def parse_datetime_utc(text: str) -> datetime:
    """Parse an ISO 8601 UTC dateTime; the zone must be Z or +00:00."""
    candidate = text
    if candidate.endswith("Z"):
        candidate = candidate[:-1] + "+00:00"
    # fromisoformat on 3.10 takes only 3- or 6-digit fractions; canonical
    # output strips trailing zeros, so pad any 1..6 digits back to 6
    match = _FRACTION_RE.search(candidate)
    if match:
        digits = match.group(1)
        if len(digits) > 6:
            raise ValueError(f"dateTime precision below microseconds: {text!r}")
        candidate = candidate[:match.start(1)] + digits.ljust(6, "0") \
            + candidate[match.end(1):]
    elif "." in candidate:
        raise ValueError(f"not an ISO 8601 dateTime: {text!r}")
    try:
        parsed = datetime.fromisoformat(candidate)
    except ValueError as exc:
        raise ValueError(f"not an ISO 8601 dateTime: {text!r}") from exc
    if parsed.tzinfo is None or parsed.utcoffset() != timedelta(0):
        raise ValueError(f"dateTime must be UTC: {text!r}")
    return parsed.astimezone(timezone.utc)


def format_datetime_utc(moment: datetime) -> str:
    """Canonical UTC rendering: four-digit year, seconds precision unless
    fractions exist, whose trailing zeros are dropped."""
    if moment.tzinfo is None or moment.utcoffset() != timedelta(0):
        raise ValueError("datetime must carry a UTC zone")
    text = moment.replace(tzinfo=None).isoformat()
    if moment.microsecond:
        text = text.rstrip("0")
    return text + "Z"


# Keys stay ASCII-escaped, string values keep their characters; both are
# the C escapers json.dumps itself calls, and a value that is no str is a TypeError.
_encode_key = json.encoder.encode_basestring_ascii
encode_text = json.encoder.encode_basestring
BOOL_TEXT = {True: "true", False: "false"}  # 1 and 0 find these too: check the type first


def dumps_canonical(value) -> str:
    """Single-line JSON with sorted keys and no insignificant whitespace.

    Decimal values render as bare number tokens in their minimal form, which
    json.dumps cannot do natively.
    """
    return (_ENCODERS.get(type(value)) or _dumps)(value)


def _dumps(value) -> str:
    """A value whose exact type has no encoder: a subclass takes its base's.
    No class subclasses two of these bases, and bool has no subclasses."""
    for kind, encode in _ENCODERS.items():
        if isinstance(value, kind):
            return encode(value)
    raise TypeError(f"no canonical JSON form for {type(value).__name__}")


def _dumps_object(value: dict) -> str:
    keys = sorted(value)
    if not all(isinstance(key, str) for key in keys):
        raise TypeError("canonical JSON keys must be strings")
    return "{" + ",".join([_encode_key(key) + ":" + dumps_canonical(value[key])
                           for key in keys]) + "}"


def _dumps_array(value) -> str:
    return "[" + ",".join([(_ENCODERS.get(type(item)) or _dumps)(item) for item in value]) + "]"


# Exact type -> encoder; bool and None map through a dict's C lookup.
_ENCODERS = {
    str: encode_text,
    int: str,
    Decimal: canonical_decimal,
    bool: BOOL_TEXT.__getitem__,
    type(None): {None: "null"}.__getitem__,
    dict: _dumps_object,
    list: _dumps_array,
    tuple: _dumps_array,
}


def object_template(keys: tuple[str, ...], kind: str | None = None) -> str:
    """The %-template of dumps_canonical of a dict of these keys: one %s per key, in
    sorted key order. Given a `kind`, a log line's: the dict also holds "kind": kind,
    rendered into the template, and the text ends in LF."""
    fixed = {} if kind is None else {"kind": dumps_canonical(kind)}
    return "{" + ",".join([_encode_key(key).replace("%", "%%") + ":"
                           + (fixed[key].replace("%", "%%") if key in fixed else "%s")
                           for key in sorted((*keys, *fixed))]) + "}" + ("\n" if fixed else "")

