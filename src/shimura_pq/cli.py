"""Command line interface.

Subcommands: ``check`` runs the full criterion and emits a JSON certificate,
``graph`` builds the dual graph and reports statistics (optionally a DOT file
of the blown-up quotient), ``ogg`` classifies the congruence case.  Exit
codes for ``check``: 0 satisfied, 1 a verification check failed, 2 the
congruence hypotheses are unmet, 3 invalid input or internal error.

``ogg`` needs only ``ntheory.check_ogg``: ``main`` imports ``certify`` (the
quaternion and graph code) after the ``ogg`` branch, so ``ogg``, ``--help``
and argument errors start without it.  The names once bound here from
``certify`` and ``compgroup`` resolve through the PEP 562 ``__getattr__``.
"""

import argparse
import json
import os
import sys

from .ntheory import check_ogg

_REEXPORTS = ("CACHE_ENV", "certificate_json", "exit_code", "genus", "graph_statistics",
              "load_or_build_graph", "run_criterion", "to_dot")


def __getattr__(name):
    if name not in _REEXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import certify, compgroup

    return getattr(compgroup if name == "to_dot" else certify, name)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="criterion",
        description="Rational-point criterion for Atkin-Lehner quotients of "
        "Shimura curves of discriminant pq, with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the full criterion for (p, q)")
    check.add_argument("--p", type=int, required=True)
    check.add_argument("--q", type=int, required=True)
    check.add_argument("--l", type=int, default=None,
                       help="force the auxiliary prime of the conductor tower")
    check.add_argument("--max-n", type=int, default=None,
                       help="maximal tower depth (default: genus + 2)")
    check.add_argument("--cache", default=None, help="graph cache directory")
    check.add_argument("--json", dest="json_file", default=None,
                       help="also write the certificate to this file")
    check.add_argument("--override-hypotheses", action="store_true",
                       help="run the machinery even if hypotheses fail")

    graph = sub.add_parser("graph", help="build the dual graph and print statistics")
    graph.add_argument("--p", type=int, required=True)
    graph.add_argument("--q", type=int, required=True)
    graph.add_argument("--dot", default=None,
                       help="write the blown-up quotient graph in DOT format")
    graph.add_argument("--cache", default=None)
    graph.add_argument("--json", dest="json_file", default=None)

    ogg = sub.add_parser("ogg", help="classify the congruence case of (p, q)")
    ogg.add_argument("--p", type=int, required=True)
    ogg.add_argument("--q", type=int, required=True)
    return parser


def _writable(path, directory):
    """Whether a file, or a directory made if missing, can be written at
    path: the nearest existing directory on its way must be writable."""
    path = os.path.abspath(path)
    if not directory:
        path = "" if os.path.isdir(path) else os.path.dirname(path)
    while directory and not os.path.lexists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path) and os.access(path, os.W_OK)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ogg":
            out = {"p": args.p, "q": args.q, "ogg_case": check_ogg(args.p, args.q)}
            print(json.dumps(out, sort_keys=True, indent=2))
            return 0

        from . import certify, compgroup  # only check and graph run them

        cache_dir = getattr(args, "cache", None) or os.environ.get(certify.CACHE_ENV)
        for flag, path, directory in (("--cache" if args.cache else certify.CACHE_ENV, cache_dir, True),
                                      ("--json", args.json_file, False),
                                      ("--dot", getattr(args, "dot", None), False)):
            if path and not _writable(path, directory):  # before any work is done
                raise ValueError(f"cannot write {flag} {path}")

        if args.command == "graph":
            graph, from_cache = certify.load_or_build_graph(args.p, args.q, cache_dir)
            stats, mg, blown = certify.graph_statistics(graph)
            out = {
                "p": args.p,
                "q": args.q,
                "genus": certify.genus(args.q),
                "graph": stats,
                "graph_from_cache": from_cache,
            }
            blob = json.dumps(out, sort_keys=True, indent=2)
            print(blob)
            if args.json_file:
                with open(args.json_file, "w", encoding="utf-8") as fh:
                    fh.write(blob + "\n")
            if args.dot:
                with open(args.dot, "w", encoding="utf-8") as fh:
                    fh.write(compgroup.to_dot(blown))
            return 0

        cert = certify.run_criterion(
            args.p,
            args.q,
            l=args.l,
            n_max=args.max_n,
            cache_dir=cache_dir,
            override=args.override_hypotheses,
        )
        blob = certify.certificate_json(cert)
        sys.stdout.write(blob)
        if args.json_file:
            with open(args.json_file, "w", encoding="utf-8") as fh:
                fh.write(blob)
        return certify.exit_code(cert)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # resource/internal failures
        import traceback  # only on this path: it costs every start otherwise

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
