"""``repro.serve``: always-warm HTTP results service over the sweep cache.

See :mod:`repro.serve.server` for the endpoint map and consistency
contract, :mod:`repro.serve.catalog` for the shared CLI/HTTP scenario
catalog, and :mod:`repro.serve.streams` for the live-follow SSE generator.

The command-line options are defined here, not beside the server, so that
``python -m repro`` can build its ``serve`` sub-parser without importing
``http.server``.
"""

from repro._lazy import lazy_exports

#: Default listen port (``--port`` overrides; 0 picks an ephemeral port).
DEFAULT_PORT = 8123


def add_serve_arguments(parser) -> None:
    """Shared argument definitions for ``python -m repro serve`` and
    ``python -m repro.serve`` (one definition, two entry points)."""
    parser.add_argument(
        "cache_dir",
        help="warm sweep-cache directory to serve (ResultRow JSON files)",
    )
    parser.add_argument(
        "--queue-dir", default=None, metavar="DIR",
        help="work-queue directory to tail for /follow streams "
             "(the sweep's --queue-dir)",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, metavar="N",
        help=f"listen port (default {DEFAULT_PORT}; 0 picks a free port)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default 127.0.0.1; 0.0.0.0 serves the network)",
    )
    parser.add_argument(
        "--any-code", action="store_true",
        help="serve rows written by any simulator version "
             "(default: stale-code rows answer 409 Conflict)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request access logging",
    )


__getattr__, __dir__, _lazy_names = lazy_exports(__name__, {
    "ResultsServer": "repro.serve.server",
    "ResultsService": "repro.serve.server",
    "ServiceError": "repro.serve.server",
    "catalog_entries": "repro.serve.catalog",
    "follow_scenario": "repro.serve.streams",
    "format_catalog": "repro.serve.catalog",
    "main": "repro.serve.server",
    "make_server": "repro.serve.server",
})

__all__ = ["DEFAULT_PORT", "add_serve_arguments", *_lazy_names]
