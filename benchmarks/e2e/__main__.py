"""``python -m benchmarks.e2e`` (with ``PYTHONPATH=src``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
