"""``python -m bihomsuper``: the command line of :mod:`bihomsuper.cli`."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
