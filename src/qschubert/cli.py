"""Command line front end.

Commands: ``lr`` (classical structure constants), ``qprod`` (quantum
products), ``gw`` (three-point invariants), ``puzzle`` (raw puzzle
counts), ``string`` (boundary-string encodings), ``verify`` (batch
suites; ``--format json`` prints the suite, ok, checks, failures and
seconds).  Output is deterministic apart from those seconds: identical
invocations produce identical bytes.  Exit codes: 0 success, 1 domain
error, 2 usage error, 3 internal contract violation.  ``gw --method``
names a product route of ``ring.ROUTES`` or an invariant-only one kept
here (``puzzle`` on G(m, N), ``duality`` on OG); no method means the
production product, ``ring.PRODUCT``.

Product-shaped results can be cached in a line-delimited file of JSON
records, each keyed by the query itself and the engine version; stale
versions and unreadable records, undecodable ones too, are misses.  The
location comes from ``--cache``, falling back to the ``QSCHUBERT_CACHE``
environment variable; a path that cannot be opened is a domain error.

Every call is a fresh process, so this module imports only ``ring`` and
``combinat`` up front.  The chosen space's module (``typea``, or
``isotropic`` with ``qpoly``) loads on the first lookup in the ``ring``
registries, and ``puzzle``, ``verify`` and ``inspect`` are imported
inside the commands that use them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

from . import __version__, ring
from .combinat import partition, string_degree, word_01, word_jd
from .ring import A, OG, ContractViolation, Space

ENGINE_VERSION = __version__


class UsageError(ValueError):
    """Malformed command line input, as opposed to a domain violation."""


def parse_partition(text: str):
    """Comma-separated parts; '' and '0' denote the empty partition."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        return partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


def _terms_sorted_for_json(coeffs):
    return sorted(((list(nu), d, c) for (nu, d), c in coeffs.items()),
                  key=lambda t: (t[0], t[1]))


def _result_json(query: dict, coeffs) -> str:
    entries = [{"nu": nu, "d": d, "c": c} for nu, d, c in _terms_sorted_for_json(coeffs)]
    return json.dumps({"query": query, "result": entries}, sort_keys=True)


def _cache_lookup(path: str | None, key: dict, space: Space):
    if not path or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if record.get("key") == key and record.get("version") == ENGINE_VERSION:
                    # each term checked as a caller's, by the element constructor
                    terms = {(tuple(nu), d): c for nu, d, c in record["result"]}
                    return ring.Element(space, terms).coeffs
            except (AttributeError, KeyError, TypeError, ValueError):
                continue  # an unreadable record is a miss
    return None


def _cache_store(path: str | None, key: dict, coeffs):
    if not path:
        return
    record = {"key": key, "version": ENGINE_VERSION,
              "result": _terms_sorted_for_json(coeffs)}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _space(args) -> Space:
    """The space a command works on, built once from the command line."""
    kind = getattr(args, "space", A)
    if args.n is None or (args.m is None) != (kind != A):
        wanted = "--m and --n" if kind == A else "--n and no --m"
        raise UsageError(f"space {kind} needs {wanted}")
    return Space.of(kind, args.m, args.n)


def _classes(space: Space, *texts: str):
    """Parse every partition argument, then check each once in the space."""
    return [space.check(lam) for lam in [parse_partition(x) for x in texts]]


def _cmd_qprod(args, space: Space) -> str:
    lam, mu = _classes(space, args.lam, args.mu)
    query = {"cmd": "qprod", "space": args.space, "m": args.m, "n": args.n,
             "lambda": list(lam), "mu": list(mu)}
    cache_path = args.cache or os.environ.get("QSCHUBERT_CACHE")
    coeffs = _cache_lookup(cache_path, query, space)
    if coeffs is None:
        coeffs = space.element(ring.PRODUCT[space.kind](space, lam, mu)).coeffs
        _cache_store(cache_path, query, coeffs)
    if args.format == "json":
        return _result_json(query, coeffs)
    return space.element(coeffs).text()


def _gw_by_puzzle(space: Space, lam, mu, nu, d: int) -> int:
    from . import typea

    return typea.puzzle_invariant(space, lam, mu, nu, d)


def _gw_by_duality(space: Space, lam, mu, nu, d: int) -> int:
    from . import isotropic

    report = isotropic.duality_check(lam, mu, nu, d, space.n)
    if not report.ok:
        raise ContractViolation("; ".join(report.failures))
    return report.data["og"]


# the routes of gw --method that give an invariant but no product
_GW_INVARIANTS = {(A, "puzzle"): _gw_by_puzzle, (OG, "duality"): _gw_by_duality}


def _cmd_gw(args, space: Space) -> str:
    invariant = _GW_INVARIANTS.get((space.kind, args.method))
    product = ring.ROUTES[space.kind].get(args.method)  # None: ring.gw reads PRODUCT
    if args.method and not (invariant or product):
        raise UsageError(f"--method {args.method} is not available on space {space.kind}")
    lam, mu, nu = _classes(space, args.lam, args.mu, args.nu)
    value = (invariant(space, lam, mu, nu, args.d) if invariant
             else ring.gw(space, lam, mu, nu, args.d, product))
    if args.format == "json":
        query = {"cmd": "gw", "space": args.space, "m": args.m, "n": args.n,
                 "lambda": list(lam), "mu": list(mu), "nu": list(nu), "d": args.d}
        return _result_json(query, {(nu, args.d): value})
    return str(value)


def _cmd_lr(args, space: Space) -> str:
    lam, mu, nu = _classes(space, args.lam, args.mu, args.nu)
    if args.method == "puzzle":
        from . import puzzle

        strings = [word_01(x, space.m, space.n) for x in (lam, mu, space.dual(nu))]
        value = puzzle.count(*strings, "1step")
    else:
        value = ring.gw(space, lam, mu, space.dual(nu), 0)
    if args.format == "json":
        query = {"cmd": "lr", "m": args.m, "n": args.n, "lambda": list(lam),
                 "mu": list(mu), "nu": list(nu)}
        return _result_json(query, {(nu, 0): value})
    return str(value)


def _cmd_puzzle(args) -> str:
    from . import puzzle

    count = puzzle.count_puzzles_1step if args.type == "1step" else puzzle.count_puzzles_2step
    value = count(args.nw, args.ne, args.s)
    if args.format == "json":
        query = {"cmd": "puzzle", "type": args.type, "nw": args.nw,
                 "ne": args.ne, "s": args.s}
        return json.dumps({"query": query, "result": value}, sort_keys=True)
    return str(value)


def _cmd_string(args, space: Space) -> str:
    (lam,) = _classes(space, args.lam)
    m, n = space.m, space.n
    i_string = word_01(lam, m, n)
    w = [i + 1 for symbol in "01" for i, c in enumerate(i_string) if c == symbol]
    payload = {"I": i_string, "w": w}
    lines = [f"I={i_string}", "w=" + ",".join(str(x) for x in w)]
    if args.d is not None:
        j = word_jd(lam, m, n, string_degree(args.d, m, n))
        payload[f"J{args.d}"] = j
        lines.append(f"J{args.d}={j}")
    if args.format == "json":
        query = {"cmd": "string", "m": args.m, "n": args.n,
                 "lambda": list(lam), "d": args.d}
        return json.dumps({"query": query, "result": payload}, sort_keys=True)
    return "\n".join(lines)


def _cmd_verify(args) -> tuple[int, str]:
    import inspect

    from . import verify

    suite = verify.SUITES.get(args.suite)
    if suite is None:
        return 2, f"unknown suite {args.suite!r}; choose from {sorted(verify.SUITES)}"
    kwargs = {key: getattr(args, key) for key in ("max_N", "max_n", "max_weight")
              if getattr(args, key) is not None}
    try:
        inspect.signature(suite).bind(**kwargs)
    except TypeError as exc:
        return 2, f"bad bounds for suite {args.suite}: {exc}"
    try:
        start = perf_counter()
        report = suite(**kwargs)
        seconds = perf_counter() - start
    except TypeError as exc:  # the bounds fit, so the engine is at fault
        return 3, f"internal error in suite {args.suite}: {exc}"
    if report.checked == 0:
        code, text = 1, f"error: suite {args.suite} made no checks within these bounds"
    elif report.ok:
        code, text = 0, f"PASS ({report.checked} checks)"
    else:
        first = report.failures[0] if report.failures else "unknown"
        code, text = 1, f"FAIL ({report.checked} checks) first: {first}"
    if args.format == "json":  # ok exactly when the exit code is 0
        text = json.dumps({"suite": args.suite, "ok": code == 0, "checks": report.checked,
                           "failures": report.failures, "seconds": seconds}, sort_keys=True)
    return code, text


_SPACE_COMMANDS = {"qprod": _cmd_qprod, "gw": _cmd_gw, "lr": _cmd_lr, "string": _cmd_string}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qschubert",
                                     description="Exact Schubert calculus engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, partitions=("lambda", "mu"), space=True):
        if space:
            p.add_argument("--space", choices=["A", "LG", "OG"], default="A")
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        for name in partitions:
            dest = {"lambda": "lam"}.get(name, name)
            p.add_argument(f"--{name}", dest=dest, required=True)
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("qprod", help="quantum product of two classes")
    add_common(p)
    p.add_argument("--cache", default=None)

    p = sub.add_parser("gw", help="three-point invariant of given degree")
    add_common(p, partitions=("lambda", "mu", "nu"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=["pieri", "qtilde", "puzzle", "duality"],
                   default=None)

    p = sub.add_parser("lr", help="classical structure constant on G(m,N)")
    add_common(p, partitions=("lambda", "mu", "nu"), space=False)
    p.add_argument("--method", choices=["pieri", "puzzle"], default="pieri")

    p = sub.add_parser("puzzle", help="raw puzzle count")
    p.add_argument("--type", choices=["1step", "2step"], required=True)
    p.add_argument("--nw", required=True)
    p.add_argument("--ne", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("string", help="boundary string encodings of a partition")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("verify", help="run a batch verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max-N", dest="max_N", type=int, default=None)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--max-weight", dest="max_weight", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def run(argv) -> tuple[int, str]:
    """Execute one command line; returns (exit code, output text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    try:
        if args.command in _SPACE_COMMANDS:
            return 0, _SPACE_COMMANDS[args.command](args, _space(args))
        if args.command == "puzzle":
            return 0, _cmd_puzzle(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except ContractViolation as exc:
        return 3, f"contract violation: {exc}"
    except UsageError as exc:
        return 2, f"usage error: {exc}"
    except (OSError, ValueError) as exc:  # OSError: an unusable cache path
        return 1, f"error: {exc}"
    return 2, f"unknown command {args.command!r}"


def main(argv=None) -> int:
    code, output = run(sys.argv[1:] if argv is None else argv)
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
