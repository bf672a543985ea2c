"""Values from outside the program, from JSON files and the objects in them:
a bad one is a ConfigError located at its path or key, in CLI and library."""

import json
import numbers
import sys


class ConfigError(ValueError):
    pass


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read_text(path, where=""):
    """The text of a UTF-8 file; other bytes are a config error located at
    its path, after the prefix `where` (an unreadable file is an OSError)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{where}{path}: byte {exc.start} is not UTF-8 text") from exc


def read_json(path, where=""):
    """Parse a JSON input file; an unreadable, non-UTF-8 or malformed file is
    a config error located at its path (and line:column) after `where`."""
    try:
        return json.loads(read_text(path, where))
    except OSError as exc:
        raise ConfigError(f"{where}{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def read(cfg, key, kind=float, size=None, low=None, above=None, where=""):
    """cfg[key] as `kind`: float (a finite number), int (|x| <= sys.maxsize)
    or bool; a boolean is no number, a numpy scalar is. size=n asks for a
    list of n values, size="any" for a non-empty list; numbers must be >= low
    and > above where given. Anything else is a ConfigError naming `where` +
    key and the value, as JSON or else by repr."""
    largest = sys.maxsize if kind is int else sys.float_info.max

    def fits(x):
        if isinstance(x, bool) or kind is bool:
            return isinstance(x, bool) and kind is bool
        if not isinstance(x, numbers.Integral if kind is int else numbers.Real):
            return False
        x = int(x) if isinstance(x, numbers.Integral) else float(x)  # numpy scalars too
        return abs(x) <= largest and (low is None or x >= low) and (above is None or x > above)

    raw = cfg.get(key)
    items = raw if size else [raw]
    if not (isinstance(items, list) and items and size in (None, "any", len(items))
            and all(fits(x) for x in items)):
        one, many = {float: ("a finite number", "finite numbers"), int: ("an integer", "integers"),
                     bool: ("true or false", None)}[kind]
        what = f"a list of {'one or more' if size == 'any' else size} {many}" if size else one
        limits = "".join(f" {op} {v:g}" for op, v in ((">=", low), (">", above)) if v is not None)
        if kind is int and isinstance(raw, numbers.Integral) and abs(raw) > largest:
            limits += f" and <= {largest}"
        try:
            shown = canonical_json(raw)
        except TypeError:
            shown = repr(raw)
        raise ConfigError(f"{where}{key} must be {what}{limits}, got {shown}")
    values = [kind(x) for x in items]
    return values if size else values[0]
