"""Analysis utilities: distributions and fidelity metrics."""

from repro.analysis.distributions import (
    Distribution,
    cross_entropy,
    hellinger_fidelity,
    kl_divergence,
    mean_marginal_fidelity,
    total_variation_distance,
)

__all__ = [
    "Distribution",
    "hellinger_fidelity",
    "mean_marginal_fidelity",
    "total_variation_distance",
    "kl_divergence",
    "cross_entropy",
]
