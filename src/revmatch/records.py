"""Flat ``key=value`` records: the one text format of every config file,
report, parameter file and calibration file; and :func:`read_lines`, the one
reader of every text input (records, manifests, text RIRs).

Blank lines, ``#`` comments and lines without ``=`` are skipped; a line splits
at its first ``=`` and both sides are stripped. Floats are written with 17
significant digits, so they read back exactly, and bools as ``0``/``1``.
Dataclass files (calibrations, parameter files, reports) hold their fields in
field order, ``None`` ones left out: :func:`dump` writes, :func:`load` reads.
"""

from dataclasses import MISSING, fields


def read_lines(path):
    """``(FILE:LINE, line)`` of each non-blank line of a UTF-8 text file,
    stripped; a file that is not UTF-8 is a ``ValueError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [line.strip() for line in f]
    except UnicodeDecodeError as exc:
        # no byte offset: the decoder counts it from its chunk, not the file
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return [(f"{path}:{n}", line) for n, line in enumerate(lines, 1) if line]


def read_records(path, required=()):
    """``{key: value string}`` of a record file; a repeated key, or a missing
    ``required`` one, is a ``ValueError`` naming the file and the key."""
    records = {}
    for _, line in read_lines(path):
        if not line.startswith("#") and "=" in line:
            key, val = (side.strip() for side in line.split("=", 1))
            if key in records:
                raise ValueError(f"{path}: repeated {key} record")
            records[key] = val
    for key in required:
        if key not in records:
            raise ValueError(f"{path}: no {key} record")
    return records


def record_number(records, path, key, kind=float):
    """``kind`` of the ``key`` record; a value ``kind`` cannot convert is a
    ``ValueError`` naming the file and key."""
    try:
        return kind(records[key])
    except ValueError:
        raise ValueError(f"{path}: {key} record {records[key]!r} is not a "
                         f"valid {kind.__name__}") from None


def format_records(pairs):
    """Newline-terminated record lines for ``(key, value)`` pairs."""
    return "".join(f"{key}={_format(val)}\n" for key, val in pairs)


def dump(obj):
    """Record lines of a dataclass's fields but the ``None`` ones."""
    pairs = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return format_records((k, v) for k, v in pairs if v is not None)


def load(cls, path):
    """``cls`` read from a record file: a field without a default is required,
    each is converted by :func:`record_number` with its type (``float``,
    ``int`` or ``str``; any other is a ``TypeError``), other keys ignored."""
    for f in fields(cls):
        if f.type not in (float, int, str):
            raise TypeError(f"{cls.__name__}.{f.name}: not float, int or str")
    kv = read_records(path, [f.name for f in fields(cls)
                             if f.default is MISSING])
    return cls(**{f.name: record_number(kv, path, f.name, kind=f.type)
                  for f in fields(cls) if f.name in kv})


def _format(val):
    if isinstance(val, bool):
        return str(int(val))
    if isinstance(val, float):
        return f"{val:.17g}"
    return str(val)
