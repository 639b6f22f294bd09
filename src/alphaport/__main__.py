"""``python -m alphaport``: the command-line front end of ``alphaport.cli``."""

from .cli import entry

if __name__ == "__main__":
    entry()
