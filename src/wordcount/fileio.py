"""Group file import and the on-disk character-table cache.

Group files are UTF-8 text.  The first non-comment line is either
`cayley <n>` followed by n rows of n 0-based indices, or `perm <degree> <k>`
followed by k permutations given as images.  Lines starting with `#` are
comments.  Cayley input need not put the identity at index 0; it is
relabeled on load.  Every number is written in ASCII digits, and none may
have more digits than the order cap, 20480; `cayley <n>` above the cap is
refused before any row is read.

Only `cached_character_table` needs the table engine, so it imports
`chartab` itself and reading a group file does not load it.
"""

import os
import sys
from pathlib import Path

from . import groups
from .errors import InternalInconsistency, NonIntegral, ParseError, read_ints

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
        if len(fields) != 2:
            raise ParseError("expected 'cayley <n>'", lineno)
        (n,) = _ints(fields[1:], lineno, "cayley header")
        groups.refuse_oversize(n)
        rows = _int_rows(lines[1:], n, n, "cayley row")
        if len(lines) > 1 + n:
            raise ParseError("trailing input", lines[1 + n][0])
        return groups.from_cayley_table(rows)
    if fields[0] == "perm":
        if len(fields) != 3:
            raise ParseError("expected 'perm <degree> <k>'", lineno)
        degree, k = _ints(fields[1:], lineno, "perm header")
        rows = _int_rows(lines[1:], k, degree, "permutation")
        if len(lines) > 1 + k:
            raise ParseError("trailing input", lines[1 + k][0])
        return groups.from_permutation_generators(degree, rows)
    raise ParseError(f"unknown header {fields[0]!r}", lineno)


def _ints(tokens, lineno, what):
    return read_ints(tokens, groups.DEFAULT_ORDER_CAP,
                     lambda message: ParseError(f"{what}: {message}", lineno))


def _int_rows(lines, count, width, what):
    rows = []
    for i in range(count):
        if i >= len(lines):
            raise ParseError(f"expected {count} {what}s, got {i}",
                             lines[-1][0] if lines else 0)
        lineno, line = lines[i]
        row = _ints(line.split(), lineno, what)
        if len(row) != width:
            raise ParseError(
                f"{what} has {len(row)} entries, expected {width}", lineno)
        rows.append(row)
    return rows


def import_group(path):
    """The group in the file at path.  A path the OS cannot open (a NUL
    byte in it included) or text that is not UTF-8 is a ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ParseError(f"cannot read {path}: {exc}", 0)
    return parse_group(text)


def cache_dir():
    return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR))


def cached_character_table(G):
    """The character table, loaded from the cache directory if present.

    A cache file that cannot be read, parsed or verified counts as a miss:
    the table is recomputed and the file rewritten.  A file that cannot be
    written costs one warning line on stderr, and the table is returned.
    """
    from . import chartab

    path = cache_dir() / f"{cache_key(G)}.chartab"
    if path.is_file():
        try:
            return chartab.load_table(G, path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, ParseError,
                InternalInconsistency, NonIntegral):
            pass
    table = chartab.character_table(G)
    try:
        _write_atomic(path, table.text)
    except OSError as exc:
        sys.stderr.write(
            f"warning: table not cached: {type(exc).__name__}: {exc}\n")
    return table


def cache_key(G):
    """The sha256 hex digest of repr((G.order, G.mul)) with every row a
    tuple, fed to the hash row by row: the same name whether rows are
    stored as tuples or arrays, without building the whole text."""
    import hashlib

    n = G.order
    names = list(map(str, range(n)))
    comma = "," if n == 1 else ""  # the repr of a 1-tuple: (1, ((0,),))
    digest = hashlib.sha256(f"({n}, (".encode())
    sep = ""
    for row in G.mul:
        digest.update(
            f"{sep}({', '.join(map(names.__getitem__, row))}{comma})".encode())
        sep = ", "
    digest.update(f"{comma}))".encode())
    return digest.hexdigest()


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
