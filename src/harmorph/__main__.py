"""``python -m harmorph``: the ``harmorph`` command line."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="harmorph")
