"""The repo's performance benchmark (see bench/README.md)."""
