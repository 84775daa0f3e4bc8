"""`python -m otb`: the `otb` command line tool."""

from .cli import main

main()
