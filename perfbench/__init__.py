"""End-to-end and per-layer benchmark of the resesop package (see README.md)."""
