"""Downstream applications built on the mining stack (paper §1 motivation)."""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "CBAClassifier": "classifier",
        "ClassRule": "classifier",
    },
)

__all__ = ["CBAClassifier", "ClassRule"]
