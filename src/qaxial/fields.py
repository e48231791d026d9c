"""The flat ``key = value`` text of architecture specs, train configs,
checkpoint metadata and ``synthetic://`` datasets."""

from .errors import ConfigurationError


def read(text: str, casts: dict, defaults: dict) -> dict:
    """Each key of ``casts``: cast from its line of ``text``, else its default.

    Blank and ``#`` lines are skipped.  A line without ``=``, an unknown or
    repeated key, a value its cast rejects, or a key with neither a line nor
    a default raises :class:`ConfigurationError` naming the key.
    """
    values = {}
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigurationError(f"line {line!r} is not 'key = value'")
        if key not in casts or key in values:
            raise ConfigurationError(
                f"{'repeated' if key in values else 'unknown'} key {key!r}")
        try:
            values[key] = casts[key](raw)
        except ValueError:
            raise ConfigurationError(f"key {key!r}: bad value {raw!r}") from None
    missing = [key for key in casts if key not in values and key not in defaults]
    if missing:
        raise ConfigurationError(f"missing key {missing[0]!r}")
    return {**defaults, **values}


def write(values: dict) -> str:
    """One ``key = value`` line per item, in order."""
    return "".join(f"{key} = {value}\n" for key, value in values.items())
