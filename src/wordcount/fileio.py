"""Group file import/export and the on-disk character-table cache.

Group files are UTF-8 text.  The first non-comment line is either
`cayley <n>` followed by n rows of n 0-based indices, or `perm <degree> <k>`
followed by k permutations given as images.  Lines starting with `#` are
comments.  Cayley input need not put the identity at index 0; it is
relabeled on load.

Only `cached_character_table` needs the table engine, so it imports
`chartab` itself and reading a group file does not load it.
"""
from __future__ import annotations

import os
from pathlib import Path

from . import groups
from .errors import (InternalInconsistency, NonIntegral, OrderLimitExceeded,
                     ParseError)

CACHE_ENV = "WORDCOUNT_CACHE"
DEFAULT_CACHE_DIR = ".wordcount-cache"


def _content_lines(text):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def parse_group(text):
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty group file", 0)
    lineno, header = lines[0]
    fields = header.split()
    if fields[0] == "cayley":
        if len(fields) != 2 or not fields[1].isdigit():
            raise ParseError("expected 'cayley <n>'", lineno)
        n = int(fields[1])
        cap = groups.DEFAULT_ORDER_CAP
        if n > cap:
            raise OrderLimitExceeded(f"order {n} exceeds order cap {cap}")
        rows = _int_rows(lines[1:], n, n, "cayley row")
        if len(lines) > 1 + n:
            raise ParseError("trailing input", lines[1 + n][0])
        return groups.from_cayley_table(rows)
    if fields[0] == "perm":
        if len(fields) != 3 or not all(f.isdigit() for f in fields[1:]):
            raise ParseError("expected 'perm <degree> <k>'", lineno)
        degree, k = int(fields[1]), int(fields[2])
        rows = _int_rows(lines[1:], k, degree, "permutation")
        if len(lines) > 1 + k:
            raise ParseError("trailing input", lines[1 + k][0])
        return groups.from_permutation_generators(degree, rows)
    raise ParseError(f"unknown header {fields[0]!r}", lineno)


def _int_rows(lines, count, width, what):
    rows = []
    for i in range(count):
        if i >= len(lines):
            raise ParseError(f"expected {count} {what}s, got {i}",
                             lines[-1][0] if lines else 0)
        lineno, line = lines[i]
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"{what} is not a list of integers", lineno)
        if len(row) != width:
            raise ParseError(
                f"{what} has {len(row)} entries, expected {width}", lineno)
        rows.append(row)
    return rows


def import_group(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}", 0)
    return parse_group(text)


def export_group(G, stream):
    stream.write(f"cayley {G.order}\n")
    for row in G.mul:
        stream.write(" ".join(str(v) for v in row) + "\n")


def cache_dir():
    return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR))


def cached_character_table(G):
    """The character table, loaded from the cache directory if present.

    A cache file that cannot be read, parsed or verified counts as a miss:
    the table is recomputed and the file rewritten.
    """
    import hashlib

    from . import chartab

    key = hashlib.sha256(repr((G.order, G.mul)).encode()).hexdigest()
    path = cache_dir() / f"{key}.chartab"
    if path.is_file():
        try:
            return chartab.load_table(G, path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, ParseError,
                InternalInconsistency, NonIntegral):
            pass
    table = chartab.character_table(G)
    _write_atomic(path, chartab.dump_table(table))
    return table


def _write_atomic(path, text):
    """Write through a temp file in the same directory and rename it over
    path, so a reader or a crash never leaves a partial file there."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
