"""The one bound on a duration a caller may set.

NaN slips past a plain ``> 0`` test, and inf or a finite but huge
value overflows the wait it sets (``time.sleep``/``Event.wait`` raise
``OverflowError`` at ``1e300``, ``time.sleep(threading.TIMEOUT_MAX)``
raises ``OSError``).  Both accept :data:`MAX_WAIT_SECONDS`.
"""

from __future__ import annotations

__all__ = ["MAX_WAIT_SECONDS", "check_duration"]

#: The longest wait any duration may ask for, in seconds (~31.7 years).
MAX_WAIT_SECONDS = 1e9


def check_duration(name: str, value: float, *, zero_ok: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless
    ``0 < value <= MAX_WAIT_SECONDS`` (``0 <=`` with ``zero_ok``)."""
    above = value >= 0 if zero_ok else value > 0
    if not (above and value <= MAX_WAIT_SECONDS):
        raise ValueError(
            f"{name} must be finite and {'>=' if zero_ok else '>'} 0, at most "
            f"{MAX_WAIT_SECONDS:g} s (got {value})"
        )
