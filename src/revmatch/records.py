"""Flat ``key=value`` records: the one text format of every config file,
report, parameter file and calibration file.

Blank lines, ``#`` comments and lines without ``=`` are skipped; a line splits
at its first ``=`` and both sides are stripped. Floats are written with 17
significant digits, so they read back exactly, and bools as ``0``/``1``.
"""


def read_records(path, required=()):
    """``{key: value string}`` of a record file; a repeated key, or a missing
    ``required`` one, is a ``ValueError`` naming the file and the key."""
    records = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#") and "=" in line:
                key, val = (side.strip() for side in line.split("=", 1))
                if key in records:
                    raise ValueError(f"{path}: repeated {key} record")
                records[key] = val
    for key in required:
        if key not in records:
            raise ValueError(f"{path}: no {key} record")
    return records


def record_number(records, path, key, default=None, kind=float):
    """``kind`` of the ``key`` record, or ``default`` without one; a value
    ``kind`` cannot convert is a ``ValueError`` naming the file and key."""
    try:
        return kind(records[key]) if key in records else default
    except ValueError:
        raise ValueError(f"{path}: {key} record {records[key]!r} is not a "
                         f"valid {kind.__name__}") from None


def format_records(pairs):
    """Newline-terminated record lines for ``(key, value)`` pairs."""
    return "".join(f"{key}={_format(val)}\n" for key, val in pairs)


def _format(val):
    if isinstance(val, bool):
        return str(int(val))
    if isinstance(val, float):
        return f"{val:.17g}"
    return str(val)
