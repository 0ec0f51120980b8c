"""Command-line interface: regenerate any table or figure from the terminal.

Examples
--------

List everything that can be reproduced::

    smash-repro list

Regenerate Figure 10/11 (SpMV speedup and instruction counts)::

    smash-repro run figure10

Run one figure on four worker processes, restricted to two matrices, and
save the raw result::

    smash-repro run figure10 --processes 4 --matrices M2,M8 --output fig10.json

Run every experiment at reduced size (a quick smoke test)::

    smash-repro all --quick

Serve sweeps over HTTP from one shared session/cache/pool::

    smash-repro serve --port 0 --port-file port.txt --processes 4

The CLI is a thin shell over :class:`repro.api.Session`: flags and the
documented environment knobs (``SMASH_REPRO_PROCESSES``,
``SMASH_REPRO_TRACE_CHUNK``, ``SMASH_REPRO_CACHE_DIR``,
``SMASH_REPRO_CACHE``, ``SMASH_REPRO_SERVICE_HOST``,
``SMASH_REPRO_SERVICE_PORT``) are folded into one validated
:class:`~repro.api.config.RuntimeConfig` — explicit flags win — and every
experiment driver receives the resulting Session. Kernel results are
memoized in a content-keyed on-disk cache (``.smash-cache/`` by default),
so repeated invocations only execute jobs whose configuration changed; pass
``--no-cache`` to disable it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import pathlib
import sys
from typing import List, Optional, Tuple

from repro.api.config import (
    DEFAULT_CACHE_DIR,
    DEFAULT_SERVICE_PORT,
    PROCESSES_ENV_VAR,
    SERVICE_HOST_ENV_VAR,
    SERVICE_PORT_ENV_VAR,
    RuntimeConfig,
)
from repro.api.session import Session
from repro.eval.figures import Experiment, get_experiment, list_experiments
from repro.eval.reporting import render_result


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help=f"worker processes for kernel jobs (default: ${PROCESSES_ENV_VAR} or 1 = serial)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="also write the raw result as JSON to FILE",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help=(
            f"report cache directory (default: ${{SMASH_REPRO_CACHE_DIR}} "
            f"or {DEFAULT_CACHE_DIR})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk report cache for this invocation",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``smash-repro`` tool."""
    parser = argparse.ArgumentParser(
        prog="smash-repro",
        description="Regenerate the tables and figures of the SMASH paper reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all reproducible tables and figures")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id, e.g. figure10, table3, area")
    run_parser.add_argument("--quick", action="store_true", help="use reduced problem sizes")
    run_parser.add_argument("--json", action="store_true", help="print the raw result as JSON")
    run_parser.add_argument(
        "--matrices",
        type=str,
        default=None,
        metavar="M1,M2,...",
        help="restrict the experiment to these workload ids (matrix ids; graph ids for figure18)",
    )
    run_parser.add_argument(
        "--schemes",
        type=str,
        default=None,
        metavar="S1,S2,...",
        help="restrict a scheme sweep to these schemes (must include taco_csr)",
    )
    _add_runner_arguments(run_parser)

    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.add_argument("--quick", action="store_true", help="use reduced problem sizes")
    all_parser.add_argument("--json", action="store_true", help="print raw results as JSON")
    _add_runner_arguments(all_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the sweep daemon (POST /sweeps over HTTP)",
        description=(
            "Serve sweeps over HTTP from one shared Session: every client "
            "shares the daemon's worker pool, report cache and single-flight "
            "scheduler, and reports are byte-identical to an in-process "
            "Session.sweep (DESIGN.md section 15)."
        ),
    )
    serve_parser.add_argument(
        "--host",
        type=str,
        default=None,
        metavar="ADDR",
        help=f"bind address (default: ${SERVICE_HOST_ENV_VAR} or 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            f"bind port, 0 = OS-assigned ephemeral (default: "
            f"${SERVICE_PORT_ENV_VAR} or {DEFAULT_SERVICE_PORT})"
        ),
    )
    serve_parser.add_argument(
        "--port-file",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the bound port to FILE once listening (for --port 0 scripting)",
    )
    serve_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access logging",
    )
    _add_runner_arguments(serve_parser)

    lint_parser = subparsers.add_parser(
        "lint",
        help="check the repo's machine-checked invariants (repro.lint)",
        description=(
            "Run the AST-based invariant linter (DESIGN.md section 14). "
            "All arguments are forwarded to `python -m repro.lint`."
        ),
    )
    lint_parser.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        metavar="...",
        help="arguments forwarded to repro.lint (paths, --json, --select, --list-rules)",
    )

    # The result-store subcommands (query/tables/cache) live in
    # repro.store.cli; mounting them here keeps one `smash-repro` surface.
    from repro.store.cli import add_store_subcommands

    add_store_subcommands(subparsers)
    return parser


#: Store subcommands dispatched to repro.store.cli rather than handled here.
_STORE_COMMANDS = ("query", "tables", "cache")


def _experiment_job_keys(identifier: str, quick: bool) -> Tuple[str, ...]:
    """Lower a registered experiment to its sweep's job keys.

    The resolver injected into ``smash-repro query --experiment``: the
    store cannot know which jobs belong to which figure (jobs are shared
    across experiments by design), so the filter is resolved here, at the
    layer that owns the experiment registry.
    """
    from repro.eval.runner import job_key
    from repro.store import StoreError

    try:
        experiment = get_experiment(identifier)
    except KeyError as error:
        raise StoreError(error.args[0] if error.args else str(error)) from None
    if experiment.spec_builder is None:
        raise StoreError(
            f"experiment {experiment.identifier!r} ({experiment.kind}) runs no "
            "cacheable sweep; --experiment works for the kernel-sweep "
            "experiments (figure10, figure12, spadd)"
        )
    sweep, sim = experiment.spec_builder(quick)
    return tuple(job_key(spec.to_job(sim=sim, smash=None)) for spec in sweep.specs)


def _build_session(args: argparse.Namespace) -> Session:
    """A Session for this invocation; flags win over environment knobs.

    Invalid values — a non-positive ``--processes``, a malformed environment
    variable — surface as ``ValueError`` from
    :meth:`RuntimeConfig.from_env`, reported by :func:`main` as a clean CLI
    error instead of a traceback.
    """
    kwargs = {
        "processes": args.processes,
        # Only the serve subcommand defines the bind flags; the service
        # knobs are harmless defaults everywhere else.
        "service_host": getattr(args, "host", None),
        "service_port": getattr(args, "port", None),
    }
    if args.no_cache:
        kwargs["cache_dir"] = None
    elif args.cache_dir is not None:
        kwargs["cache_dir"] = args.cache_dir
    # With neither --no-cache nor --cache-dir given, from_env consults the
    # SMASH_REPRO_CACHE / SMASH_REPRO_CACHE_DIR environment knobs.
    runtime = RuntimeConfig.from_env(**kwargs)
    return Session(runtime=runtime)


def _driver_kwargs(experiment: Experiment, requested: dict) -> dict:
    """Drop kwargs the experiment's driver does not accept.

    Tables and structural figures take no session/keys arguments; silently
    filtering lets one ``all`` invocation thread the shared session and any
    selection flags through every driver that understands them.
    """
    parameters = inspect.signature(experiment.driver).parameters
    if any(p.kind == p.VAR_KEYWORD for p in parameters.values()):
        return dict(requested)
    kwargs = {k: v for k, v in requested.items() if k in parameters}
    # The session is threaded through internally; only warn about options
    # the user asked for explicitly.
    dropped = sorted(set(requested) - set(kwargs) - {"session"})
    if dropped:
        print(
            f"[{experiment.identifier}] ignoring inapplicable options: {', '.join(dropped)}",
            file=sys.stderr,
        )
    return kwargs


def _report_stats(identifier: str, session: Session) -> None:
    if session.stats.submitted:
        print(f"[{identifier}] jobs: {session.stats.describe()}", file=sys.stderr)


def _write_output(payload, path: Optional[pathlib.Path]) -> None:
    if path is not None:
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``smash-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment in list_experiments():
            print(f"{experiment.identifier:10s} [{experiment.kind}] {experiment.description}")
        return 0

    if args.command == "serve":
        # Deferred so list/run/lint invocations never import the daemon.
        from repro.service.server import serve

        try:
            session = _build_session(args)
        except ValueError as error:
            print(f"smash-repro: {error}", file=sys.stderr)
            return 2

        def _ready(server) -> None:
            host, port = server.server_address[0], server.bound_port
            print(
                f"smash-repro serve: listening on http://{host}:{port} "
                f"({session.runtime.describe()})",
                file=sys.stderr,
            )
            if args.port_file is not None:
                args.port_file.write_text(f"{port}\n", encoding="utf-8")

        serve(
            session,
            session.runtime.service_host,
            session.runtime.service_port,
            quiet=args.quiet,
            ready=_ready,
        )
        return 0

    if args.command in _STORE_COMMANDS:
        from repro.store.cli import run_store_command

        return run_store_command(args, resolve_experiment=_experiment_job_keys)

    if args.command == "lint":
        # Deferred so the heavy experiment imports above stay untouched by
        # a lint-only invocation and the linter stays usable standalone.
        from repro.lint.cli import main as lint_main

        return lint_main(args.lint_args)

    if args.command == "run":
        try:
            experiment = get_experiment(args.experiment)
        except KeyError as error:
            print(error.args[0] if error.args else error, file=sys.stderr)
            return 2
        try:
            session = _build_session(args)
        except ValueError as error:
            print(f"smash-repro: {error}", file=sys.stderr)
            return 2
        kwargs = dict(experiment.quick_kwargs) if args.quick else {}
        if args.matrices:
            kwargs["keys"] = tuple(key.strip() for key in args.matrices.split(",") if key.strip())
        if args.schemes:
            kwargs["schemes"] = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
        kwargs["session"] = session
        try:
            result = experiment.driver(**_driver_kwargs(experiment, kwargs))
        except (KeyError, ValueError) as error:
            # Bad --matrices / --schemes selections surface as KeyError
            # (unknown workload id) or ValueError (e.g. sweep without the
            # taco_csr baseline) from the driver.
            message = error.args[0] if error.args else error
            print(f"{experiment.identifier}: {message}", file=sys.stderr)
            return 2
        finally:
            session.close()
        _report_stats(experiment.identifier, session)
        _write_output(result, args.output)
        print(json.dumps(result, indent=2, default=str) if args.json else render_result(result))
        return 0

    if args.command == "all":
        try:
            session = _build_session(args)
        except ValueError as error:
            print(f"smash-repro: {error}", file=sys.stderr)
            return 2
        results = {}
        try:
            for experiment in list_experiments():
                kwargs = dict(experiment.quick_kwargs) if args.quick else {}
                kwargs["session"] = session
                result = experiment.driver(**_driver_kwargs(experiment, kwargs))
                results[experiment.identifier] = result
                if not args.json:
                    print(render_result(result))
                    print()
        finally:
            session.close()
        _report_stats("all", session)
        _write_output(results, args.output)
        if args.json:
            print(json.dumps(results, indent=2, default=str))
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
