"""Micro-transformer text classification with mixing of pooled representations."""
