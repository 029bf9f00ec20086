"""CSV text of the output tables: each table is filled by one ``%``.

``"%.9g" % v`` is the same conversion as ``f"{v:.9g}"``, and ``"%d" % n`` as ``f"{n}"``.
"""

from itertools import chain


def fill(header: str, body: str, values) -> str:
    """``header``, then ``body`` (each row's template, ending "\\r\\n") filled by ``values``."""
    return (header + "\r\n" + body) % tuple(values)


def table(header: str, row: str, columns) -> str:
    """One line of the template ``row`` for each row of ``columns`` (one sequence per field)."""
    rows = list(zip(*columns))
    return fill(header, (row + "\r\n") * len(rows), chain.from_iterable(rows))
