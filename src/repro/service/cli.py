"""Service subcommand bodies (``repro serve`` / ``submit`` / ``status`` /
``result`` / ``cancel`` / ``shutdown``).

The argument surface lives in :mod:`repro.cli` (so ``--help`` shows one
coherent tool); these functions are imported lazily from there and do
the work.  ``submit --wait`` streams state transitions and exits with
the **same** :mod:`repro.exitcodes` the equivalent one-shot invocation
would have, so scripts can branch on outcome without caring which path
ran the job.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import sys

from repro.errors import ServiceError
from repro.exitcodes import EXIT_FAILURE, EXIT_OK
from repro.service.client import ServiceClient
from repro.service.jobspec import ServiceJobSpec
from repro.service.server import ServiceConfig, serve
from repro.service.state import STATE_DONE, JobRecord


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    """The daemon's config from a ``serve`` namespace: every field the
    command line set, the rest defaulted; ``--faults`` / ``--fault-seed``
    lower to the fault plan."""
    names = {f.name for f in dataclasses.fields(ServiceConfig)}
    values = {
        name: value for name, value in vars(args).items()
        if name in names and value is not None
    }
    if args.faults:
        from repro.faults import parse_faults

        values["fault_plan"] = parse_faults(args.faults, seed=args.fault_seed)
    return ServiceConfig(**values)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the daemon in the foreground until SIGTERM/shutdown."""
    asyncio.run(serve(config_from_args(args)))
    return EXIT_OK


def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient.from_state_dir(args.state_dir)


def spec_from_args(args: argparse.Namespace) -> ServiceJobSpec:
    """Build the wire spec from a ``submit <app>`` namespace: every
    attribute that is a spec field rides, an unset one (None or an
    empty string) takes the spec's default."""
    names = {f.name for f in dataclasses.fields(ServiceJobSpec)}
    return ServiceJobSpec(
        inputs=tuple(args.files) if args.app == "wordcount" else (args.file,),
        **{
            name: value for name, value in vars(args).items()
            if name in names and value not in (None, "")
        },
    )


def _report_outcome(record: JobRecord, report: "dict | None") -> int:
    """Print a finished job's report (or its error) and return the exit
    code the equivalent one-shot run would have had."""
    if report is not None:
        print(json.dumps(report, indent=2, sort_keys=True))
    elif record.error:
        print(f"error: job {record.job_id} {record.state}: {record.error}",
              file=sys.stderr)
    code = record.exit_code
    return code if code is not None else (
        EXIT_OK if record.state == STATE_DONE else EXIT_FAILURE
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job; with ``--wait``, stream transitions and exit with
    the one-shot exit code."""
    spec = spec_from_args(args)
    # validate eagerly: a bad knob (unparsable --chunk-size, invalid
    # combo) should exit with the usage code here, not after a daemon
    # round trip and a failed runner attempt.
    spec.to_options()
    client = _client(args)
    if not args.wait:
        reply = client.submit(spec, rerun=args.rerun)
        verb = "reattached to" if reply.get("reattached") else "submitted"
        print(f"{verb} job {reply['job_id']} ({reply['state']})")
        return EXIT_OK

    def on_transition(record: JobRecord) -> None:
        line = f"job {record.job_id}: {record.state}"
        if record.attempts > 1 and record.state == "running":
            line += f" (attempt {record.attempts})"
        print(line, file=sys.stderr, flush=True)

    record, report = client.submit_and_wait(
        spec, rerun=args.rerun, on_transition=on_transition,
        timeout_s=args.wait_timeout,
    )
    return _report_outcome(record, report)


def cmd_status(args: argparse.Namespace) -> int:
    """Show one job's record, or a table of every known job."""
    client = _client(args)
    if args.job_id:
        reply = client.status(args.job_id)
        print(json.dumps(reply["job"], indent=2, sort_keys=True))
        return EXIT_OK
    reply = client.status()
    jobs = reply.get("jobs", [])
    print(f"service: {reply.get('running', 0)} running, "
          f"{reply.get('queued', 0)} queued, {len(jobs)} known job(s)")
    qos = reply.get("counters") or {}
    tenants = reply.get("tenants") or {}
    if qos.get("shed") or qos.get("tenant_rejected") or qos.get("aged") \
            or reply.get("io_assigned_bps") or tenants:
        print(f"qos: {reply.get('io_assigned_bps', 0)} B/s assigned; "
              f"{qos.get('shed', 0)} shed, "
              f"{qos.get('tenant_rejected', 0)} tenant-rejected, "
              f"{qos.get('aged', 0)} aged dispatch(es)")
        for name in sorted(tenants):
            t = tenants[name]
            print(f"  tenant {name}: {t.get('queued', 0)} queued, "
                  f"{int(t.get('jobs', 0))} finished, "
                  f"{int(t.get('throttle_bytes', 0))} B metered, "
                  f"{t.get('throttle_wait_s', 0.0):.3f}s throttled")
    for job in jobs:
        marks = []
        if job.get("digest"):
            marks.append(f"digest {job['digest'][:12]}…")
        if job.get("resumed"):
            marks.append("resumed")
        if job.get("error"):
            marks.append(job["error"])
        suffix = f"  ({'; '.join(marks)})" if marks else ""
        print(f"  {job['job_id']}  {job['state']:<9s} "
              f"attempts={job.get('attempts', 0)}{suffix}")
    return EXIT_OK


def cmd_result(args: argparse.Namespace) -> int:
    """Print a finished job's stored report; exits with its code."""
    client = _client(args)
    reply = client.result(args.job_id)
    record = JobRecord.from_dict(reply["job"])
    report = reply.get("report")
    return _report_outcome(record, report)


def cmd_cancel(args: argparse.Namespace) -> int:
    """Cancel a queued or running job."""
    client = _client(args)
    reply = client.cancel(args.job_id)
    job = reply.get("job", {})
    state = "cancelling" if reply.get("cancelling") else job.get("state")
    print(f"job {args.job_id}: {state}")
    return EXIT_OK


def cmd_agents(args: argparse.Namespace) -> int:
    """Show (or edit) the daemon's agent pool."""
    client = _client(args)
    if getattr(args, "register", None):
        reply = client.register_agent(args.register)
        verb = "registered" if reply.get("created") else "already registered"
        print(f"agent {reply['addr']}: {verb}")
        return EXIT_OK
    if getattr(args, "deregister", None):
        reply = client.deregister_agent(args.deregister)
        verb = "deregistered" if reply.get("removed") else "not in the pool"
        print(f"agent {args.deregister}: {verb}")
        return EXIT_OK
    reply = client.agents()
    agents = reply.get("agents", [])
    settled = "settled" if reply.get("settled") else "probing"
    print(f"agent pool: {len(agents)} agent(s), {settled}")
    for row in agents:
        latency = row.get("latency_ms")
        latency_text = f"{latency:.1f}ms" if latency is not None else "-"
        line = (f"  {row['addr']}  {row['state']:<11s} "
                f"ping={latency_text}  inflight={row.get('inflight', 0)}  "
                f"probes={row.get('probes', 0)}  flaps={row.get('flaps', 0)}")
        if row.get("last_error"):
            line += f"  ({row['last_error']})"
        print(line)
    return EXIT_OK


def cmd_shutdown(args: argparse.Namespace) -> int:
    """Ask the daemon to drain running jobs and exit."""
    client = _client(args)
    try:
        client.shutdown()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print("service draining")
    return EXIT_OK
