"""Shared did-you-mean suggestion for unknown-name errors.

Every registry (the generic :class:`repro.registry.Registry` and the
benchmark registry) and every CLI/aggregate filter rejects unknown names
with the same shape of error: the bad name, a close-match suggestion, and
the list of valid values.  This module is the single implementation
behind that suffix.
"""

from __future__ import annotations

import difflib
from typing import Iterable


def did_you_mean(name: str, known: Iterable[str]) -> str:
    """A ``" (did you mean 'x'?)"`` suffix for ``name``, or ``""``.

    Args:
        name: The unknown name the caller is about to reject.
        known: The valid names to suggest from (any iterable of strings;
            a dict contributes its keys).
    """
    close = difflib.get_close_matches(str(name), [str(k) for k in known], n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def unknown_name_message(kind: str, name: str, known: Iterable[str]) -> str:
    """Full error text for an unknown ``kind`` value: suggestion + list."""
    known = [str(k) for k in known]
    return (f"unknown {kind} {name!r}{did_you_mean(name, known)}; "
            f"available {kind}s: {known}")
