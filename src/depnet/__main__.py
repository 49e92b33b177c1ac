"""``python -m depnet``: the command-line front end."""

from .cli import main

main()
