"""The modules' one numpy binding (`from . import _np as np`). numpy loads
through the import system at the first attribute lookup (PEP 562), so
commands that only read and write text never load it."""

import importlib


def __getattr__(name: str):
    value = getattr(importlib.import_module("numpy"), name)
    globals()[name] = value  # later lookups skip this function
    return value
