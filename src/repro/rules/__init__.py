"""Association-rule generation and interestingness measures (paper §2)."""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "Rule": "generation",
        "generate_rules": "generation",
        "rules_from_result": "generation",
        "generator_basis": "basis",
        "mine_rule_basis": "basis",
        "confidence": "metrics",
        "conviction": "metrics",
        "leverage": "metrics",
        "lift": "metrics",
        "rule_metrics": "metrics",
    },
)

__all__ = [
    "Rule",
    "generate_rules",
    "rules_from_result",
    "generator_basis",
    "mine_rule_basis",
    "confidence",
    "conviction",
    "leverage",
    "lift",
    "rule_metrics",
]
