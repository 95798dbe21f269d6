"""Text forms shared by every output: one number format, the
'#'-prefixed header lines and the comma-separated rows."""


def fmt(value):
    """Text of one value: none / integer (a bool as 1 or 0) / real with 17
    significant digits, which round-trips every finite double."""
    if value is None:
        return "none"
    if isinstance(value, int):
        return "%d" % value
    return format(float(value), ".17g")


def write_header(fh, lines):
    """Each line as a '#'-prefixed header line."""
    for line in lines:
        fh.write("# %s\n" % line)


def write_rows(fh, rows):
    """Each row as one line of its values' fmt texts joined by commas."""
    fh.writelines(",".join(map(fmt, row)) + "\n" for row in rows)
