"""Truncated-backpropagation training for recurrent models, with burn-in
tuning, reference-problem solvers, and regret diagnostics."""

__version__ = "0.1.0"
