"""Best-arm identification for bounded rewards with anytime KL confidence sequences."""
