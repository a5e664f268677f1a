"""End-to-end pipeline benchmark with per-layer spans (see README.md)."""
