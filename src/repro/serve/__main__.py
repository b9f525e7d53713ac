"""``python -m repro.serve`` -- standalone entry to the results service.

Equivalent to ``python -m repro serve`` (both parse the same arguments via
:func:`repro.serve.add_serve_arguments`).
"""

from repro.serve.server import main

if __name__ == "__main__":
    raise SystemExit(main())
