"""A strict stdlib-only parser for the YAML subset scenario configs use.

The container ships no ``pyyaml``; rather than gate the scenario
harness behind an optional dependency, this module parses exactly the
dialect ``scenarios/*.yaml`` is written in — and nothing more:

* mappings nested by consistent space indentation (tabs rejected),
* inline lists (``[a, b]``),
* scalars: ints (``_`` separators allowed), floats, ``true``/``false``,
  ``null``/``~``, single- or double-quoted strings, bare strings,
* ``#`` comments outside quotes.

Anything outside the dialect — anchors, block scalars, block lists,
flow mappings, multi-line strings, duplicate keys — is a loud
:class:`YamliteError` with the offending line number, never a silent
guess.  The strictness is a feature: a scenario config that does not
parse the same way everywhere cannot pin a digest.
"""

from __future__ import annotations

import re

__all__ = ["YamliteError", "loads"]


class YamliteError(ValueError):
    """A parse error, carrying the 1-based source line number."""

    def __init__(self, line: int, message: str) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


_INT = re.compile(r"^[+-]?\d[\d_]*$")
_FLOAT = re.compile(r"^[+-]?(\d[\d_]*\.\d*|\.\d+|\d[\d_]*)([eE][+-]?\d+)?$")
_BARE_SAFE = re.compile(r"^[A-Za-z_][A-Za-z0-9_./+-]*$")


def _strip_comment(raw: str, line: int) -> str:
    """Cut an unquoted ``#`` comment off ``raw``."""
    quote = ""
    for i, ch in enumerate(raw):
        if quote:
            if ch == quote:
                quote = ""
        elif ch in "'\"":
            quote = ch
        elif ch == "#" and (i == 0 or raw[i - 1] in " \t"):
            return raw[:i]
    if quote:
        raise YamliteError(line, f"unterminated {quote} quote")
    return raw


def _scalar(text: str, line: int):
    text = text.strip()
    if text.startswith(("'", '"')):
        quote = text[0]
        if len(text) < 2 or not text.endswith(quote):
            raise YamliteError(line, f"unterminated {quote} quote")
        inner = text[1:-1]
        if quote in inner:
            raise YamliteError(
                line, f"embedded {quote} quotes are not supported"
            )
        return inner
    if text.startswith("["):
        if not text.endswith("]"):
            raise YamliteError(line, "unterminated inline list")
        body = text[1:-1].strip()
        if not body:
            return []
        return [_scalar(part, line) for part in _split_inline(body, line)]
    if text.startswith(("{", "&", "*", "|", ">", "%", "@")):
        raise YamliteError(
            line, f"unsupported YAML construct {text[0]!r}"
        )
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "~"):
        return None
    if _INT.match(text):
        return int(text)
    if _FLOAT.match(text):
        return float(text)
    return text


def _split_inline(body: str, line: int) -> list[str]:
    """Split an inline list body on commas outside quotes."""
    parts, depth, quote, start = [], 0, "", 0
    for i, ch in enumerate(body):
        if quote:
            if ch == quote:
                quote = ""
        elif ch in "'\"":
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    if depth or quote:
        raise YamliteError(line, "malformed inline list")
    parts.append(body[start:])
    if any(not p.strip() for p in parts):
        raise YamliteError(line, "empty inline list element")
    return parts


def _rows(text: str) -> list[tuple[int, int, str]]:
    """(line number, indent, stripped content) per significant line."""
    rows = []
    for no, raw in enumerate(text.splitlines(), 1):
        cut = _strip_comment(raw, no)
        if not cut.strip():
            continue
        indent = len(cut) - len(cut.lstrip(" \t"))
        if "\t" in cut[:indent]:
            raise YamliteError(no, "tabs are not allowed in indentation")
        rows.append((no, indent, cut.strip()))
    return rows


def _parse_mapping(rows, i: int, indent: int):
    mapping: dict = {}
    while i < len(rows) and rows[i][1] == indent:
        no, _, content = rows[i]
        if content == "-" or content.startswith("- "):
            raise YamliteError(
                no, "block lists are not supported; write [a, b]"
            )
        key, sep, rest = content.partition(":")
        key = key.strip()
        if not sep or not key or not _BARE_SAFE.match(key):
            raise YamliteError(no, f"expected 'key: value', got {content!r}")
        if key in mapping:
            raise YamliteError(no, f"duplicate key {key!r}")
        rest = rest.strip()
        i += 1
        if rest:
            mapping[key] = _scalar(rest, no)
            if i < len(rows) and rows[i][1] > indent:
                raise YamliteError(
                    rows[i][0], f"unexpected indent under scalar {key!r}"
                )
        else:
            if i >= len(rows) or rows[i][1] <= indent:
                raise YamliteError(
                    no, f"key {key!r} has no value (empty blocks are "
                    "not supported)"
                )
            mapping[key], i = _parse_mapping(rows, i, rows[i][1])
    if i < len(rows) and rows[i][1] > indent:
        raise YamliteError(rows[i][0], "inconsistent indentation")
    return mapping, i


def loads(text: str) -> dict:
    """Parse ``text``; the top level must be a mapping."""
    rows = _rows(text)
    if not rows:
        raise YamliteError(1, "empty document")
    if rows[0][1] != 0:
        raise YamliteError(rows[0][0], "top level must start at column 0")
    value, _ = _parse_mapping(rows, 0, 0)
    return value
