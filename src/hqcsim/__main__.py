"""`python -m hqcsim ...` runs the `hqcsim` command, also from a checkout
that is not installed (with `src` on `PYTHONPATH`)."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
