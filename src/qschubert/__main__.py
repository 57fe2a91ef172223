"""``python -m qschubert``: the command line of :mod:`qschubert.cli`."""
from .cli import main
raise SystemExit(main())
