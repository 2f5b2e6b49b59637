"""``python -m enopt``: the ``enopt`` command line."""

from .cli import main

raise SystemExit(main())
