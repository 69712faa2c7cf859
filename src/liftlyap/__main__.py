"""Command line entry point: ``python -m liftlyap COMMAND --spec FILE``."""

from .cli import entry

if __name__ == "__main__":
    entry()
