"""``supmr`` command-line interface.

Subcommands:

* ``supmr experiments [ids...]`` — regenerate the paper's tables/figures
  on the simulated testbed (all of them by default) and optionally write
  CSV artifacts;
* ``supmr wordcount FILES...`` / ``supmr sort FILE`` — run the real
  runtime on real data, baseline or SupMR configuration;
* ``supmr gen {text,terasort,files}`` — produce workload inputs;
* ``supmr serve`` / ``submit`` / ``status`` / ``result`` / ``cancel`` /
  ``shutdown`` — the long-lived multi-job daemon (:mod:`repro.service`)
  and its client side;
* ``supmr gc DIR...`` — reclaim completed checkpoint directories.

Exit codes are part of the contract (:mod:`repro.exitcodes`): 0 success,
1 runtime failure, 2 usage error, 3 fault budget exhausted, 4 job
deadline expired — identical for one-shot runs and ``submit --wait``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

from repro._version import __version__
from repro.apps.sortapp import make_sort_job
from repro.apps.wordcount import make_wordcount_job
from repro.core.flags import RUNTIME_FLAGS, options_from_flags
from repro.core.result import JobResult
from repro.core.supmr import run_job
from repro.errors import ReproError
from repro.exitcodes import classify_exception, classify_result
from repro.experiments import available_experiments, run_experiment
from repro.util.units import fmt_bytes, fmt_seconds, parse_size
from repro.workloads import (
    generate_small_files,
    generate_terasort_file,
    generate_text_file,
)


def _print_result(result: JobResult) -> None:
    t = result.timings
    print(f"job {result.job_name!r} on {result.runtime} runtime")
    print(f"  input:  {fmt_bytes(result.input_bytes)} in {result.n_chunks} chunk(s)")
    if t.read_map_combined:
        print(f"  read+map (pipelined): {fmt_seconds(t.read_map_s)}")
    else:
        print(f"  read:   {fmt_seconds(t.read_s)}")
        print(f"  map:    {fmt_seconds(t.map_s)}")
    print(f"  reduce: {fmt_seconds(t.reduce_s)}")
    print(f"  merge:  {fmt_seconds(t.merge_s)}")
    print(f"  total:  {fmt_seconds(t.total_s)}")
    print(f"  output: {result.n_output_pairs} pairs; "
          f"container rounds={result.container_stats.rounds}")
    if result.spill_stats is not None:
        s = result.spill_stats
        print(f"  spill:  {s.runs} run(s), {fmt_bytes(s.spilled_bytes)} "
              f"spilled; peak {fmt_bytes(s.peak_accounted_bytes)} of "
              f"{fmt_bytes(s.budget_bytes)} budget; combine x"
              f"{s.combine_reduction:.2f}; merge fan-in {s.merge_fan_in} "
              f"({s.merge_passes} pass(es))")
    if result.fault_log is not None:
        f = result.fault_log
        print(f"  faults: {f.injected} injected, {f.retries} retried, "
              f"{f.recoveries} recovered, {f.quarantined} quarantined")
    if result.counters.get("shards"):
        print(f"  shards: {result.counters['shards']} shard worker(s); "
              f"{result.counters.get('shard_respawns', 0)} respawned, "
              f"{result.counters.get('partitions_reassigned', 0)} "
              f"partition(s) reassigned, "
              f"{result.counters.get('exchange_refetches', 0)} "
              f"exchange refetch(es)")
    if result.counters.get("io_budget_bps"):
        c = result.counters
        print(f"  qos:    tenant {c.get('tenant', 'default')!r} throttled at "
              f"{fmt_bytes(int(c['io_budget_bps']))}/s; "
              f"{fmt_bytes(int(c.get('throttle_bytes', 0)))} metered, "
              f"{c.get('throttle_waits', 0)} wait(s) totalling "
              f"{fmt_seconds(float(c.get('throttle_wait_s', 0.0)))}")
    if result.counters.get("resumed"):
        print(f"  resume: restored {result.counters.get('resumed_rounds', 0)} "
              "completed round(s) from the checkpoint")
    if result.counters.get("degraded"):
        marks = []
        if result.counters.get("deadline_expired"):
            marks.append("job deadline expired")
        if result.counters.get("pool_failures"):
            marks.append(
                f"pool failed {result.counters['pool_failures']}x, "
                f"finished on {result.counters.get('degraded_backend')}"
            )
        print(f"  DEGRADED: {'; '.join(marks) or 'partial result'}")
    print(f"  digest: {result.output_digest()}")


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.list:
        for exp_id in available_experiments():
            print(exp_id)
        return 0
    ids = args.ids or available_experiments()
    for exp_id in ids:
        result = run_experiment(exp_id)
        print(result.render())
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, content in result.artifacts.items():
                (out_dir / name).write_text(content)
                print(f"wrote {out_dir / name}")
        print()
    return 0


def _maybe_timeline(args: argparse.Namespace, result: JobResult) -> None:
    if not args.timeline:
        return
    from repro.analysis.timeline import (
        overlap_fraction,
        render_qos_summary,
        render_round_timeline,
        render_supervision_summary,
    )

    if result.timings.rounds:
        print()
        print(render_round_timeline(result.timings.rounds))
        print(f"overlap: {100 * overlap_fraction(result.timings.rounds):.0f}% "
              "of map time ran under ingest")
    summary = render_supervision_summary(result.counters)
    if summary:
        print(summary)
    qos_line = render_qos_summary(result.counters)
    if qos_line:
        print(qos_line)


def _cmd_run(args: argparse.Namespace) -> int:
    """``supmr wordcount`` / ``supmr sort``: one job on the real runtime."""
    if args.command == "wordcount":
        job = make_wordcount_job(args.files)
    else:
        job = make_sort_job([args.file])
    result = run_job(job, options_from_flags(vars(args)))
    if args.json:
        from repro.analysis.report import to_json

        print(to_json(result))
        return classify_result(result.counters)
    _print_result(result)
    for key, count in result.output[: getattr(args, "top", 0)]:
        print(f"  {key.decode('utf-8', 'replace'):<24s} {count}")
    _maybe_timeline(args, result)
    return classify_result(result.counters)


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.simrt.costmodel import PAPER_SORT, PAPER_WORDCOUNT
    from repro.tuning.model import optimal_chunk_size, predict_read_map_s

    profile = PAPER_WORDCOUNT if args.app == "wordcount" else PAPER_SORT
    input_bytes = parse_size(args.input_size)
    result = optimal_chunk_size(profile, input_bytes, contexts=args.contexts)
    print(f"app={args.app} input={fmt_bytes(input_bytes)} "
          f"contexts={args.contexts}")
    print(f"  optimal chunk size : {fmt_bytes(result.chunk_bytes)} "
          f"({result.n_chunks} chunks)")
    print(f"  closed-form c*     : {fmt_bytes(result.closed_form_bytes)}")
    print(f"  predicted read+map : {fmt_seconds(result.predicted_read_map_s)}")
    print(f"  unpipelined        : {fmt_seconds(result.baseline_read_map_s)}")
    print(f"  predicted speedup  : {result.predicted_speedup:.3f}x")
    for label in args.compare or []:
        chunk = parse_size(label)
        t = predict_read_map_s(profile, input_bytes, chunk, args.contexts)
        print(f"  at {label:>8s}        : {fmt_seconds(t)}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.workloads.valsort import validate_file

    report = validate_file(args.file)
    print(f"records          : {report.records}")
    print(f"sorted           : {report.sorted_ok}")
    if report.first_unordered_index is not None:
        print(f"first disorder at: record {report.first_unordered_index}")
    print(f"duplicate keys   : {report.duplicate_keys}")
    print(f"checksum         : {report.checksum:016x}")
    return 0 if report.valid else 1


def _cmd_gc(args: argparse.Namespace) -> int:
    from repro.resilience.journal import JobJournal

    removed = kept = 0
    for raw in args.dirs:
        directory = Path(raw)
        if not directory.exists():
            print(f"  {directory}: no such directory", file=sys.stderr)
            continue
        if JobJournal.purge_dir(directory, require_complete=not args.force):
            removed += 1
            print(f"  {directory}: removed")
        else:
            kept += 1
            stage = JobJournal.peek_stage(directory) or "no journal"
            print(f"  {directory}: kept ({stage}; resumable state is "
                  "only collected with --force)")
    print(f"gc: {removed} removed, {kept} kept")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "text":
        written = generate_text_file(args.path, parse_size(args.size), seed=args.seed)
        print(f"wrote {fmt_bytes(written)} of text to {args.path}")
    elif args.kind == "terasort":
        written = generate_terasort_file(args.path, args.records, seed=args.seed)
        print(f"wrote {args.records} records ({fmt_bytes(written)}) to {args.path}")
    else:  # files
        paths = generate_small_files(
            args.path, args.files, parse_size(args.size), seed=args.seed
        )
        print(f"wrote {len(paths)} files of {args.size} each under {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``supmr`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="supmr",
        description="SupMR reproduction: scale-up MapReduce with ingest "
                    "chunk pipelining and p-way merge",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("ids", nargs="*", metavar="EXP",
                       help=f"experiment ids (default: all of "
                            f"{', '.join(available_experiments())})")
    p_exp.add_argument("--out", help="directory for CSV artifacts")
    p_exp.add_argument("--list", action="store_true",
                       help="list experiment ids and exit")
    p_exp.set_defaults(fn=_cmd_experiments)

    def add_runtime_args(
        p: argparse.ArgumentParser, app: str, submitted: bool = False
    ) -> None:
        """``app``'s rows of the one flag table; a ``submit`` parser
        only offers what a job spec carries."""
        for flag in RUNTIME_FLAGS:
            if app in flag.apps and (flag.in_spec or not submitted):
                p.add_argument(flag.name, **flag.argparse)

    p_wc = sub.add_parser("wordcount", help="run word count on real files")
    p_wc.add_argument("files", nargs="+")
    add_runtime_args(p_wc, "wordcount")
    p_wc.set_defaults(fn=_cmd_run)

    p_sort = sub.add_parser("sort", help="run terasort on a real file")
    p_sort.add_argument("file")
    add_runtime_args(p_sort, "sort")
    p_sort.set_defaults(fn=_cmd_run)

    p_tune = sub.add_parser(
        "tune", help="model-based optimal chunk size (paper future work)"
    )
    p_tune.add_argument("app", choices=("wordcount", "sort"))
    p_tune.add_argument("--input-size", default="155GB")
    p_tune.add_argument("--contexts", type=int, default=32)
    p_tune.add_argument("--compare", nargs="*", metavar="SIZE",
                        help="also predict these chunk sizes (e.g. 1GB 50GB)")
    p_tune.set_defaults(fn=_cmd_tune)

    p_val = sub.add_parser(
        "validate", help="valsort-style check of a terasort output file"
    )
    p_val.add_argument("file")
    p_val.set_defaults(fn=_cmd_validate)

    # -- job service --------------------------------------------------------

    def add_state_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--state-dir", required=True, metavar="DIR",
                       help="the service state directory (endpoint file, "
                            "job records, per-job checkpoints)")

    p_serve = sub.add_parser(
        "serve", help="run the long-lived multi-job daemon"
    )
    add_state_dir(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default 0: pick a free one and "
                              "advertise it in the state dir)")
    p_serve.add_argument("--max-jobs", type=int, default=2, metavar="N",
                         help="jobs allowed to run concurrently")
    p_serve.add_argument("--queue-depth", type=int, default=16, metavar="N",
                         help="queued jobs before submissions are "
                              "rejected with queue-full")
    p_serve.add_argument("--service-budget", metavar="SIZE",
                         help="cap on the sum of admitted jobs' memory "
                              "budgets, e.g. 1GB; submissions past it are "
                              "rejected with budget-exceeded")
    p_serve.add_argument("--retention", type=int, default=4, metavar="N",
                         help="finished jobs whose checkpoint dirs are "
                              "kept after result retrieval")
    p_serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                         help="runner launches per job before it is failed")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="hard wall-clock cap per runner attempt")
    p_serve.add_argument("--node-bandwidth", metavar="RATE",
                         help="aggregate node I/O bandwidth in bytes/s, "
                              "e.g. 200MB; enables dispatch-time fair-share "
                              "assignment and overload shedding")
    p_serve.add_argument("--qos-policy", default="max-min",
                         choices=("fair-share", "max-min", "priority"),
                         help="bandwidth allocation policy used at dispatch "
                              "(default max-min water-filling)")
    p_serve.add_argument("--tenant-budget", metavar="SIZE",
                         help="per-tenant cap on the sum of admitted memory "
                              "budgets; past it submissions are rejected "
                              "with tenant-budget-exceeded")
    p_serve.add_argument("--tenant-jobs", type=int, default=None,
                         metavar="N",
                         help="per-tenant cap on queued+running jobs")
    p_serve.add_argument("--default-job-budget", metavar="SIZE",
                         help="memory budget charged to jobs that declare "
                              "none (default: such jobs are rejected when "
                              "--service-budget is set)")
    p_serve.add_argument("--aging-every", type=int, default=None,
                         metavar="N",
                         help="bump a waiting job's effective priority "
                              "every N dispatches (starvation bound)")
    p_serve.add_argument("--shed-factor", type=float, default=None,
                         help="shed new work once declared I/O demand "
                              "exceeds this multiple of --node-bandwidth "
                              "(default 2.0)")
    p_serve.add_argument("--agents", metavar="HOST:PORT,...",
                         help="seed the agent pool: remote 'supmr agent' "
                              "endpoints sharded jobs may be placed on "
                              "(more can register at runtime)")
    p_serve.add_argument("--health-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="steady-state gap between agent health "
                              "probes (default 1.0)")
    p_serve.add_argument("--probe-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-probe ping deadline before an agent "
                              "counts as failed (default 2.0)")
    p_serve.add_argument("--net-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="liveness/transfer deadline handed to placed "
                              "jobs' runners")
    p_serve.add_argument("--faults",
                         help="service-site fault plan, e.g. "
                              "'service.conn.drop=0.2,service.job.crash=once'")
    p_serve.add_argument("--fault-seed", type=int, default=0)
    p_serve.set_defaults(fn="repro.service.cli:cmd_serve")

    p_submit = sub.add_parser(
        "submit", help="submit a job to a running daemon"
    )
    add_state_dir(p_submit)
    p_submit.add_argument("--wait", action="store_true",
                          help="stream state transitions, print the result "
                               "report, and exit with the one-shot exit code")
    p_submit.add_argument("--wait-timeout", type=float, default=None,
                          metavar="SECONDS")
    p_submit.add_argument("--rerun", action="store_true",
                          help="wipe a finished identical job and run it "
                               "again instead of returning its result")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="queue priority (higher runs earlier; FIFO "
                               "within a level)")
    p_submit.add_argument("--tag", default="",
                          help="free-form label folded into the job id so "
                               "deliberate duplicates stay distinct")
    submit_sub = p_submit.add_subparsers(dest="app", required=True)
    p_sub_wc = submit_sub.add_parser("wordcount")
    p_sub_wc.add_argument("files", nargs="+")
    add_runtime_args(p_sub_wc, "wordcount", submitted=True)
    p_sub_sort = submit_sub.add_parser("sort")
    p_sub_sort.add_argument("file")
    add_runtime_args(p_sub_sort, "sort", submitted=True)
    p_submit.set_defaults(fn="repro.service.cli:cmd_submit")

    p_status = sub.add_parser(
        "status", help="show service / job state"
    )
    add_state_dir(p_status)
    p_status.add_argument("job_id", nargs="?", default=None)
    p_status.set_defaults(fn="repro.service.cli:cmd_status")

    p_result = sub.add_parser(
        "result", help="fetch a finished job's JSON report (incl. digest)"
    )
    add_state_dir(p_result)
    p_result.add_argument("job_id")
    p_result.set_defaults(fn="repro.service.cli:cmd_result")

    p_cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    add_state_dir(p_cancel)
    p_cancel.add_argument("job_id")
    p_cancel.set_defaults(fn="repro.service.cli:cmd_cancel")

    p_shutdown = sub.add_parser(
        "shutdown", help="ask the daemon to drain and exit"
    )
    add_state_dir(p_shutdown)
    p_shutdown.set_defaults(fn="repro.service.cli:cmd_shutdown")

    p_agents = sub.add_parser(
        "agents", help="show or edit the daemon's agent pool"
    )
    add_state_dir(p_agents)
    group = p_agents.add_mutually_exclusive_group()
    group.add_argument("--register", metavar="HOST:PORT",
                       help="add one agent to the pool (it starts suspect "
                            "and takes work once a probe succeeds)")
    group.add_argument("--deregister", metavar="HOST:PORT",
                       help="drop one agent from the pool")
    p_agents.set_defaults(fn="repro.service.cli:cmd_agents")

    p_agent = sub.add_parser(
        "agent", help="host shard workers for a remote coordinator"
    )
    p_agent.add_argument("--listen", default="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="bind address (port 0 picks a free port; "
                              "the bound address is printed and written "
                              "to --addr-file)")
    p_agent.add_argument("--workdir", metavar="DIR",
                         help="exchange workdir for hosted workers "
                              "(default: a private temporary directory)")
    p_agent.add_argument("--addr-file", metavar="FILE",
                         help="write the bound host:port here once "
                              "listening (for scripts racing startup)")
    p_agent.add_argument("--grace", type=float, default=10.0,
                         metavar="SECONDS",
                         help="keep hosted workers this long after losing "
                              "the coordinator connection before reaping "
                              "them (a reconnect inside it resumes)")
    p_agent.set_defaults(fn="repro.net.agent:cmd_agent")

    p_gc = sub.add_parser(
        "gc", help="remove completed checkpoint directories"
    )
    p_gc.add_argument("dirs", nargs="+", metavar="DIR",
                      help="checkpoint directories (--checkpoint-dir "
                           "values) to consider")
    p_gc.add_argument("--force", action="store_true",
                      help="also remove resumable (incomplete) checkpoints")
    p_gc.set_defaults(fn=_cmd_gc)

    p_gen = sub.add_parser("gen", help="generate workload data")
    p_gen.add_argument("kind", choices=("text", "terasort", "files"))
    p_gen.add_argument("path")
    p_gen.add_argument("--size", default="4MB",
                       help="bytes for text / per-file size for files")
    p_gen.add_argument("--records", type=int, default=10000,
                       help="record count for terasort")
    p_gen.add_argument("--files", type=int, default=30,
                       help="file count for files")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    fn = args.fn
    if isinstance(fn, str):
        # the service and agent commands name their body "module:function",
        # so one-shot runs never import the daemon's stack
        module, _, name = fn.partition(":")
        fn = getattr(importlib.import_module(module), name)
    try:
        return fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return classify_exception(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
