"""``python -m repro.campaign`` — run / status / export.

Usage::

    # run a preset campaign into a persistent store (resumable:
    # re-running skips every completed point via its content hash)
    python -m repro.campaign run --spec fig17 --store runs/fig17 \\
        --seed 0 --workers 4

    # reduced grid, explicit axes
    python -m repro.campaign run --spec noise-grid --store runs/grid \\
        --counts 16,64 --rounds 2

    # a spec saved as JSON (CampaignSpec.to_dict round-trip)
    python -m repro.campaign run --spec runs/grid/spec.json --store ...

    # fault tolerance: bounded retries and per-point timeouts
    python -m repro.campaign run --spec fig17 --store runs/fig17 \\
        --timeout-s 120 --max-attempts 5

    # storage drivers: without --storage-driver, posix at --store
    # (fsync-durable); otherwise, and never beside --store, a URL
    # spec — posix:///path, memory:// (ephemeral smoke runs),
    # http://host:port/bucket (remote object store).
    python -m repro.campaign run --spec fig17 \\
        --storage-driver http://127.0.0.1:8123/campaign

    # serve a store over HTTP for remote runners (hermetic object
    # store)
    python -m repro.campaign serve --root runs/fig17 --port 8123

    # serve the campaign *API* (HSDS-style service node): JSON specs
    # in, per-point metrics streamed out, cached points answered with
    # zero recompute, identical in-flight requests deduplicated
    python -m repro.campaign serve-api --store runs/fig17 --port 8124
    python -m repro.campaign serve-api \\
        --storage-driver http://hostA:8123/campaign --port 8124

    # submit a campaign to a running service node (retries + circuit
    # breaker; exit 1 when the service reports failed points)
    python -m repro.campaign submit --service http://127.0.0.1:8124 \\
        --spec fig17 --seed 0 --counts 1,16

    # what the store holds / the merged results table (status includes
    # leased/failed/quarantined counts and per-driver I/O stats;
    # --json emits one compact machine-readable line); both work
    # against a remote store via --storage-driver http://...
    python -m repro.campaign status --store runs/fig17
    python -m repro.campaign status --store runs/fig17 --json
    python -m repro.campaign export --store runs/fig17 --format csv

Concurrent runners: multiple ``run`` invocations may target the same
store simultaneously — points are partitioned through the lease files
under ``<store>/leases/`` and a killed runner's points are reclaimed
when its leases expire. See docs/ARCHITECTURE.md §7.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.campaign.presets import PRESETS, build_preset
from repro.campaign.retry import STORAGE_RETRY, RetryPolicy
from repro.campaign.runner import CampaignRunner, check_workers
from repro.campaign.spec import CampaignSpec
from repro.campaign.storage import build_driver
from repro.campaign.store import CampaignStore
from repro.errors import (
    CampaignExecutionError,
    ConfigurationError,
    ReproError,
    StorageError,
    require_seconds,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description=(
            "Sharded, resumable, content-hash-cached experiment "
            "campaigns over the NetScatter network simulator"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a campaign (skipping already-stored points)"
    )
    run.add_argument(
        "--spec",
        required=True,
        help=(
            f"preset name ({', '.join(sorted(PRESETS))}) or a path to "
            "a CampaignSpec JSON file"
        ),
    )
    run.add_argument(
        "--store",
        default=None,
        help=(
            "store directory (created if missing; reruns resume "
            "here); required without --storage-driver, refused "
            "beside it"
        ),
    )
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="preset base seed (default 0; presets only)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool request (serial on 1-CPU hosts)",
    )
    run.add_argument(
        "--counts",
        default=None,
        help="comma-separated device counts overriding the preset grid",
    )
    run.add_argument(
        "--rounds", type=int, default=None, help="rounds per point"
    )
    run.add_argument(
        "--engine", default=None, help="engine override for presets"
    )
    run.add_argument(
        "--save-spec",
        action="store_true",
        help="also write the expanded spec to <store>/spec.json",
    )
    run.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-point attempt timeout (hung workers are retried)",
    )
    run.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="retry budget per point (default 3, seeded-jitter backoff)",
    )
    run.add_argument(
        "--lease-ttl-s",
        type=float,
        default=None,
        help="lease time-to-live for concurrent-runner claims",
    )
    run.add_argument(
        "--no-leases",
        action="store_true",
        help="skip the point-lease protocol (single-runner stores)",
    )
    run.add_argument(
        "--allow-partial",
        action="store_true",
        help="report permanently-failed points instead of erroring",
    )
    run.add_argument(
        "--storage-driver",
        default=None,
        help=(
            "storage backend as a URL spec — posix:///path, memory://, "
            "http://host:port/bucket (remote object store); default: "
            "posix at --store; refused beside --store"
        ),
    )

    status = sub.add_parser("status", help="summarise a store")
    status.add_argument(
        "--store",
        default=None,
        help="posix store directory; refused beside --storage-driver",
    )
    status.add_argument(
        "--storage-driver",
        default=None,
        help=(
            "driver spec for non-posix stores "
            "(e.g. http://host:port/bucket); refused beside --store"
        ),
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="one compact JSON line (machine-readable fleet monitoring)",
    )

    export = sub.add_parser(
        "export", help="merged per-point results table from a store"
    )
    export.add_argument(
        "--store",
        default=None,
        help="posix store directory; refused beside --storage-driver",
    )
    export.add_argument(
        "--storage-driver",
        default=None,
        help=(
            "driver spec for non-posix stores "
            "(e.g. http://host:port/bucket); refused beside --store"
        ),
    )
    export.add_argument(
        "--format", choices=("json", "csv"), default="json"
    )
    export.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write here instead of stdout",
    )

    serve = sub.add_parser(
        "serve",
        help="serve a store over HTTP for remote runners",
    )
    serve.add_argument(
        "--root",
        default=None,
        help="posix store directory to serve (default: in-memory)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8123,
        help="listen port (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--bucket",
        default="campaign",
        help="bucket path segment clients must address",
    )

    serve_api = sub.add_parser(
        "serve-api",
        help=(
            "serve the campaign API: JSON specs in, per-point metrics "
            "streamed out, cached points answered with zero recompute"
        ),
    )
    serve_api.add_argument(
        "--store",
        default=None,
        help=(
            "posix store directory backing the cache (default: memory); "
            "refused beside --storage-driver"
        ),
    )
    serve_api.add_argument(
        "--storage-driver",
        default=None,
        help=(
            "driver spec for the backing store — posix:///path, "
            "memory://, http://host:port/bucket (a remote object-store "
            "data node); refused beside --store"
        ),
    )
    serve_api.add_argument("--host", default="127.0.0.1")
    serve_api.add_argument(
        "--port",
        type=int,
        default=8124,
        help="listen port (0 picks an ephemeral port)",
    )
    serve_api.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool request per campaign execution",
    )
    serve_api.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="per-point attempt timeout for service-side runs",
    )
    serve_api.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="retry budget per point for service-side runs",
    )
    serve_api.add_argument(
        "--no-leases",
        action="store_true",
        help="skip the point-lease protocol (single-node stores)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a campaign to a running serve-api node",
    )
    submit.add_argument(
        "--service",
        required=True,
        help="service base URL, e.g. http://127.0.0.1:8124",
    )
    submit.add_argument(
        "--spec",
        required=True,
        help=(
            f"preset name ({', '.join(sorted(PRESETS))}) or a path to "
            "a CampaignSpec JSON file"
        ),
    )
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument(
        "--counts",
        default=None,
        help="comma-separated device counts overriding the preset grid",
    )
    submit.add_argument("--rounds", type=int, default=None)
    submit.add_argument("--engine", default=None)
    submit.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="client-side submit retry budget (transient failures)",
    )
    submit.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help=(
            "per-read socket timeout (must exceed the slowest single "
            "point; default 60)"
        ),
    )
    submit.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the raw NDJSON event stream instead of the summary "
            "(byte-comparable across clients of one execution)"
        ),
    )
    return parser


def _load_spec(args) -> CampaignSpec:
    if args.spec in PRESETS:
        kwargs = {"rng": args.seed if args.seed is not None else 0}
        if args.counts is not None:
            try:
                kwargs["device_counts"] = tuple(
                    int(c) for c in args.counts.split(",") if c.strip()
                )
            except ValueError:
                raise ReproError(
                    "--counts must be comma-separated integers, "
                    f"got {args.counts!r}"
                ) from None
        if args.rounds is not None:
            kwargs["n_rounds"] = args.rounds
        if args.engine is not None:
            kwargs["engine"] = args.engine
        return build_preset(args.spec, **kwargs)
    # A JSON spec is already fully expanded (explicit seeds, counts,
    # engines): the preset-only knobs cannot be applied to it, so
    # refuse loudly instead of silently running the unmodified grid.
    ignored = [
        flag
        for flag, value in (
            ("--seed", args.seed),
            ("--counts", args.counts),
            ("--rounds", args.rounds),
            ("--engine", args.engine),
        )
        if value is not None
    ]
    if ignored:
        raise ReproError(
            f"{', '.join(ignored)} only apply to preset specs; "
            f"{args.spec!r} is a JSON spec file — edit the file (or "
            "rebuild it from a preset) instead"
        )
    path = Path(args.spec)
    if not path.exists():
        raise ReproError(
            f"--spec {args.spec!r} is neither a preset "
            f"({', '.join(sorted(PRESETS))}) nor an existing JSON file"
        )
    return CampaignSpec.from_dict(json.loads(path.read_text()))


def _check_seconds(**flags) -> None:
    """Refuse a seconds flag that is not finite and > 0, before the
    command builds a store or a runner."""
    for name, value in flags.items():
        if value is not None:
            require_seconds(f"--{name.replace('_', '-')}", value)


def _check_one_store(args) -> None:
    """Refuse ``--store`` beside ``--storage-driver``: a driver spec
    names its own store, so the directory would be silently ignored."""
    if args.store is not None and args.storage_driver is not None:
        raise ConfigurationError(
            "--store and --storage-driver each name a store; pass one "
            "(posix:///path names a directory as a driver spec)"
        )


def _cmd_run(args) -> int:
    _check_seconds(timeout_s=args.timeout_s, lease_ttl_s=args.lease_ttl_s)
    check_workers(args.workers)
    _check_one_store(args)
    spec = _load_spec(args)
    if args.storage_driver is None and args.store is None:
        raise ReproError(
            "--store is required without --storage-driver (the default "
            "posix store needs a directory)"
        )
    driver = build_driver(args.storage_driver, args.store)
    store = CampaignStore(driver=driver)
    store_label = store.root if store.root is not None else driver.name
    if args.save_spec:
        store.driver.put_atomic(
            "spec.json",
            (
                json.dumps(spec.to_dict(), indent=2, sort_keys=True)
                + "\n"
            ).encode("utf-8"),
        )
    runner_kwargs = {}
    if args.max_attempts is not None:
        runner_kwargs["retry"] = RetryPolicy(max_attempts=args.max_attempts)
    if args.lease_ttl_s is not None:
        runner_kwargs["lease_ttl_s"] = args.lease_ttl_s
    runner = CampaignRunner(
        store=store,
        workers=args.workers,
        point_timeout_s=args.timeout_s,
        use_leases=not args.no_leases,
        allow_partial=args.allow_partial,
        **runner_kwargs,
    )
    started = time.perf_counter()
    try:
        run = runner.run(spec)
    except (CampaignExecutionError, StorageError) as error:
        print(f"campaign {spec.name!r} FAILED: {error}", file=sys.stderr)
        print(
            "  (failure records are under "
            f"{store_label}/failures; re-run to retry, or pass "
            "--allow-partial to collect what succeeded)",
            file=sys.stderr,
        )
        return 1
    elapsed = time.perf_counter() - started
    failed_note = f", {run.n_failed} failed" if run.failures else ""
    degraded_note = (
        ", storage DEGRADED to read-only" if run.storage_degraded else ""
    )
    print(
        f"campaign {spec.name!r}: {len(run.results)} points "
        f"({run.n_cached} cached, {run.n_computed} computed"
        f"{failed_note}{degraded_note}) "
        f"in {elapsed:.2f}s -> {store_label}"
    )
    for result in run.results:
        point = result.point
        origin = "cache" if result.cached else "ran  "
        retry_note = (
            f" attempts={result.attempts}" if result.attempts > 1 else ""
        )
        print(
            f"  [{origin}] D={point.n_devices:>4} "
            f"engine={point.engine} noise={point.noise_mode} "
            f"fading={int(point.fading)} "
            f"backend={result.provenance.get('backend', '?')} "
            f"phy={result.metrics.phy_rate_bps / 1e3:.1f}kbps"
            f"{retry_note}"
        )
    for failure in run.failures:
        last = failure.attempts[-1] if failure.attempts else {}
        print(
            f"  [FAIL ] D={failure.point.n_devices:>4} "
            f"{failure.content_hash[:12]}… after "
            f"{len(failure.attempts)} attempts "
            f"({last.get('error', '?')}: {last.get('message', '?')})"
        )
    return 0 if not run.failures else 1


def _open_store(args) -> CampaignStore:
    """A read-side store from ``--store`` or ``--storage-driver``."""
    _check_one_store(args)
    spec = args.storage_driver
    if spec is None:
        if args.store is None:
            raise ReproError(
                "need --store (posix directory) or --storage-driver "
                "(URL spec such as http://host:port/bucket)"
            )
        return CampaignStore(args.store)
    return CampaignStore(driver=build_driver(spec))


def _cmd_status(args) -> int:
    status = _open_store(args).status()
    if args.json:
        # One compact line: fleet monitors tail many stores at once.
        print(json.dumps(status, separators=(",", ":"), sort_keys=True))
    else:
        print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _format_rows(rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    columns: list = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _cmd_export(args) -> int:
    rows = _open_store(args).export_rows()
    text = _format_rows(rows, args.format)
    if args.output is not None:
        args.output.write_text(text)
        print(f"exported {len(rows)} points to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_serve(args) -> int:
    # Imported here so the plain run/status paths never pay for the
    # HTTP stack.
    from repro.campaign.objectstore import ObjectStoreService, check_port
    from repro.campaign.storage import PosixDriver

    check_port(args.port)
    backing = args.root if args.root is not None else "memory://"
    with contextlib.ExitStack() as running:
        with _removed_unless_started(args.root):
            service = running.enter_context(
                ObjectStoreService(
                    driver=(
                        PosixDriver(args.root) if args.root is not None else None
                    ),
                    host=args.host,
                    port=args.port,
                    bucket=args.bucket,
                )
            )
        print(
            f"serving {backing} at {service.url} "
            f"(--storage-driver {service.url})",
            flush=True,
        )
        _serve_until_interrupted()
    return 0


@contextlib.contextmanager
def _removed_unless_started(root):
    """Remove the directories of ``root`` the block made, if it fails.

    A service on a posix store makes the store's directory before it
    binds its port. If the block, which builds and starts the service
    and serves nothing yet, fails (a port the host cannot bind), the
    directories of ``root`` that did not exist before it are removed
    again; one that existed stays.
    """
    made = None
    if root is not None:
        made = Path(root).absolute()
        while not made.parent.exists():
            made = made.parent
        if made.exists():
            made = None
    try:
        yield
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def _serve_until_interrupted() -> None:
    """Block the main thread until Ctrl-C; the service threads serve."""
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass


def _cmd_serve_api(args) -> int:
    # Imported here so the plain run/status paths never pay for the
    # HTTP stack.
    from repro.campaign.objectstore import check_port
    from repro.campaign.service import CampaignService

    _check_seconds(timeout_s=args.timeout_s)
    check_workers(args.workers)
    check_port(args.port)
    _check_one_store(args)
    kwargs = {}
    if args.max_attempts is not None:
        kwargs["retry"] = RetryPolicy(max_attempts=args.max_attempts)
    with contextlib.ExitStack() as running:
        with _removed_unless_started(args.store):
            if args.storage_driver is not None:
                driver = build_driver(args.storage_driver)
                store = CampaignStore(driver=driver)
                backing = driver.name
            elif args.store is not None:
                store = CampaignStore(args.store)
                backing = args.store
            else:
                store = None
                backing = "memory://"
            service = running.enter_context(
                CampaignService(
                    store=store,
                    host=args.host,
                    port=args.port,
                    workers=args.workers,
                    point_timeout_s=args.timeout_s,
                    use_leases=not args.no_leases,
                    **kwargs,
                )
            )
        print(
            f"serving campaign API over {backing} at {service.url} "
            f"(submit with: python -m repro.campaign submit "
            f"--service {service.url} --spec ...)",
            flush=True,
        )
        _serve_until_interrupted()
    return 0


def _cmd_submit(args) -> int:
    from repro.campaign.client import CampaignServiceClient

    _check_seconds(timeout_s=args.timeout_s)
    spec = _load_spec(args)
    kwargs = {}
    if args.max_attempts is not None:
        kwargs["retry"] = replace(
            STORAGE_RETRY, max_attempts=args.max_attempts
        )
    if args.timeout_s is not None:
        kwargs["timeout_s"] = args.timeout_s
    client = CampaignServiceClient(args.service, **kwargs)
    started = time.perf_counter()
    try:
        run = client.submit(spec, raise_on_failed=False)
    except StorageError as error:
        print(
            f"campaign {spec.name!r} submit FAILED: {error}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        sys.stdout.buffer.write(b"".join(run.raw_lines))
        sys.stdout.buffer.flush()
        return 0 if run.summary.get("status") == "complete" else 1
    elapsed = time.perf_counter() - started
    if run.summary.get("status") == "failed":
        print(
            f"campaign {spec.name!r} FAILED server-side: "
            f"{run.summary.get('error', '?')}",
            file=sys.stderr,
        )
        return 1
    failed_note = f", {run.n_failed} failed" if run.n_failed else ""
    retry_note = (
        f" after {run.attempts} attempts" if run.attempts > 1 else ""
    )
    print(
        f"campaign {spec.name!r} [{run.campaign_id[:12]}]: "
        f"{len(run.point_events)} points "
        f"({run.n_cached} cached, {run.n_computed} computed"
        f"{failed_note}) in {elapsed:.2f}s via {client.url}"
        f"{retry_note}"
    )
    for event in run.point_events:
        metrics = event["metrics"]
        print(
            f"  [{event['index']:>3}] D={metrics['n_devices']:>4} "
            f"backend={event['provenance'].get('backend', '?')} "
            f"phy={metrics['phy_rate_bps'] / 1e3:.1f}kbps"
        )
    for event in run.events:
        if event.get("event") == "failed":
            print(
                f"  [FAIL] {event.get('content_hash', '?')[:12]}… "
                f"({event.get('error', '?')}: "
                f"{event.get('message', '?')})"
            )
    return 0 if run.summary.get("status") == "complete" else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "serve-api":
        return _cmd_serve_api(args)
    if args.command == "submit":
        return _cmd_submit(args)
    return _cmd_export(args)


def entrypoint(argv=None) -> int:
    """:func:`main` with CLI-grade error reporting: any
    :class:`~repro.errors.ReproError` (bad driver spec, unusable spec
    file, a port the host cannot bind) becomes one actionable stderr line
    and exit code 2, never a traceback. Library callers use
    :func:`main`, which lets the typed errors propagate."""
    try:
        return main(argv)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
