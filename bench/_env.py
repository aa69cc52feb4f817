"""Locates the checkout and imports gramgrow from its `src/` only."""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


class MissingProgram(RuntimeError):
    pass


def import_gramgrow():
    """Import the package from this checkout's sources, never from elsewhere."""
    pkg = os.path.join(SRC, "gramgrow", "__init__.py")
    if not os.path.isfile(pkg):
        raise MissingProgram("no gramgrow sources at %s" % os.path.dirname(pkg))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gramgrow

    where = os.path.realpath(os.path.dirname(gramgrow.__file__))
    if where != os.path.realpath(os.path.dirname(pkg)):
        raise MissingProgram("gramgrow was imported from %s, not from this checkout" % where)
    return gramgrow
