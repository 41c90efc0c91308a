"""`python -m stablemaps`: the same command line as the stablemaps script."""

from .cli import run

if __name__ == "__main__":
    run()
