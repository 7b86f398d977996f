"""`python -m emolab ...` runs the `emolab` command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
