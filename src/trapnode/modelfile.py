"""The one reader of graph, platform and scenario files: a parsed JSON value is
checked against a dataclass's type hints and built in the same walk.

A dataclass takes an object of its fields (a field with a default may be left
out); a tuple or frozenset a list (of the tuple's length, if fixed); a float
any finite number, kept as the JSON gives it; an int, str, bool or dict a
JSON value of that type. The first bad value raises a ValueError naming its
path, such as `graph.layers[3].kernel`; a dataclass's own ValueError passes.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import typing


def read_model(what: str, value, kind):
    """`value`, read from JSON at `what`, checked and built as `kind`."""
    return _reader(kind)(value, what)


def _spell(at) -> str:
    """The path `at`, (parent, field name or list index) pairs down to a str."""
    steps = []
    while isinstance(at, tuple):
        at, step = at
        steps.append(f"[{step}]" if isinstance(step, int) else f".{step}")
    return at + "".join(reversed(steps))


@functools.cache  # one reader per type; hints never change
def _reader(kind):
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        fields = {f.name: (_reader(hints[f.name]), f.default is dataclasses.MISSING)
                  for f in dataclasses.fields(kind)}

        def read(value, at):
            if not isinstance(value, dict):
                raise ValueError(f"{_spell(at)} must be a JSON object")
            if not fields.keys() >= value.keys():
                key = next(k for k in value if k not in fields)
                raise ValueError(f"unknown key {_spell(at)}.{key}")
            kwargs = {}
            for name, (read_field, required) in fields.items():
                if name in value:
                    kwargs[name] = read_field(value[name], (at, name))
                elif required:
                    raise ValueError(f"{_spell(at)}.{name} is missing")
            return kind(**kwargs)
    elif items := typing.get_args(kind):
        make = typing.get_origin(kind)  # tuple or frozenset
        length = len(items) if make is tuple and items[-1] is not Ellipsis else None
        readers = ([_reader(item) for item in items] if length
                   else itertools.repeat(_reader(items[0])))

        def read(value, at):
            if not isinstance(value, list) or length and len(value) != length:
                raise ValueError(f"{_spell(at)} must be a list ({kind}), got {value!r}")
            return make([read_item(item, (at, i))
                         for i, (read_item, item) in enumerate(zip(readers, value))])
    else:
        # JSON gives exact types, so `type` tells true from 1 and 1 from 1.0.
        allowed = (int, float) if kind is float else (kind,)
        numeric, largest = kind in (int, float), sys.float_info.max

        def read(value, at):
            if type(value) not in allowed:
                raise ValueError(f"{_spell(at)} must be {kind.__name__}, got {value!r}")
            if numeric and not -largest <= value <= largest:
                raise ValueError(f"{_spell(at)} must be a finite number, got {value}")
            return value
    return read
