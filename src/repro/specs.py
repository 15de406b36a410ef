"""The one grammar of every ``name:field:...`` spec string (docs/serving.md
has the table of forms).  Stdlib only: obs, serve and fleet use it
without importing core."""

import math
from typing import Any, Callable, Mapping

#: Fields after this marker in a form may be left off.
OPTIONAL = object()


def real(field: str) -> float:
    """A finite float field."""
    if not math.isfinite(value := float(field)):
        raise ValueError(f"{field!r} is not finite")
    return value


def parse(what: str, spec: str, forms: Mapping[str, tuple] | tuple, build: Callable) -> Any:
    """``build(*fields)`` for ``spec`` split on ``:``, each field typed by its
    converter in a form (``int``, :func:`real` or ``str``).  ``forms`` is one
    form, or maps a name, the first field, to the form of the rest; ``build``
    then gets the name first.  Every ``ValueError``, ``build``'s included, is
    raised again as ``bad <what> spec '<spec>': <reason>``."""
    try:
        fields = spec.split(":")
        name = [fields.pop(0)] if isinstance(forms, Mapping) else []
        if name and name[0] not in forms:
            raise ValueError(f"unknown {what} {name[0]!r} (known: {', '.join(forms)})")
        form = forms[name[0]] if name else forms
        converters = [convert for convert in form if convert is not OPTIONAL]
        least = form.index(OPTIONAL) if OPTIONAL in form else len(form)
        if not least <= len(fields) <= len(converters):
            most = len(converters)
            count = "no" if not most else most if least == most else f"{least} to {most}"
            raise ValueError(f"takes {count} parameter{'s' * (most > 1)}, got {len(fields)}")
        return build(*name, *(convert(field) for convert, field in zip(converters, fields)))
    except ValueError as exc:
        raise ValueError(f"bad {what} spec {spec!r}: {exc}") from None


def label(*fields: str | int | float) -> str:
    """The spec that parses back to ``fields``: a float prints with ``:g``
    when that reads back as the same float, else as its ``repr``."""
    return ":".join(map(_field, fields))


def _field(value: str | int | float) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    short = f"{value:g}"
    return short if float(short) == value else repr(value)
