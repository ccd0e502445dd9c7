"""Entry point of ``python3 -m bench``.

The import sits under the ``__main__`` check because the service's
spawned worker processes re-import this module, and they should pay for
nothing but the guard.
"""

if __name__ == "__main__":
    import sys

    from bench.cli import main

    sys.exit(main())
