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
import sys
from pathlib import Path

from repro._version import __version__
from repro.apps.sortapp import make_sort_job
from repro.apps.wordcount import make_wordcount_job
from repro.core.options import RuntimeOptions
from repro.core.phoenix import PhoenixRuntime
from repro.core.result import JobResult
from repro.core.supmr import SupMRRuntime
from repro.errors import ReproError
from repro.exitcodes import classify_exception, classify_result
from repro.experiments import available_experiments, run_experiment
from repro.service.jobspec import build_options
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


#: One shared lowering for CLI namespaces and submitted job specs, so
#: the one-shot and service paths cannot drift
#: (:func:`repro.service.jobspec.build_options`).
_options_from = build_options


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


def _run_job(job, options: RuntimeOptions) -> JobResult:
    if options.num_shards is not None:
        from repro.shard import ShardedRuntime

        return ShardedRuntime(options).run(job)
    if options.chunk_strategy.value == "none":
        return PhoenixRuntime(options).run(job)
    return SupMRRuntime(options).run(job)


def _maybe_timeline(args: argparse.Namespace, result: JobResult) -> None:
    if not getattr(args, "timeline", False):
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


def _cmd_wordcount(args: argparse.Namespace) -> int:
    options = _options_from(args)
    result = _run_job(make_wordcount_job(args.files), options)
    if getattr(args, "json", False):
        from repro.analysis.report import to_json

        print(to_json(result))
        return classify_result(result.counters)
    _print_result(result)
    for key, count in result.output[: args.top]:
        print(f"  {key.decode('utf-8', 'replace'):<24s} {count}")
    _maybe_timeline(args, result)
    return classify_result(result.counters)


def _cmd_sort(args: argparse.Namespace) -> int:
    options = _options_from(args)
    result = _run_job(make_sort_job([args.file]), options)
    if getattr(args, "json", False):
        from repro.analysis.report import to_json

        print(to_json(result))
        return classify_result(result.counters)
    _print_result(result)
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


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.cli import cmd_serve

    return cmd_serve(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.cli import cmd_submit

    return cmd_submit(args)


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.cli import cmd_status

    return cmd_status(args)


def _cmd_result(args: argparse.Namespace) -> int:
    from repro.service.cli import cmd_result

    return cmd_result(args)


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.cli import cmd_cancel

    return cmd_cancel(args)


def _cmd_shutdown(args: argparse.Namespace) -> int:
    from repro.service.cli import cmd_shutdown

    return cmd_shutdown(args)


def _cmd_agents(args: argparse.Namespace) -> int:
    from repro.service.cli import cmd_agents

    return cmd_agents(args)


def _cmd_agent(args: argparse.Namespace) -> int:
    from repro.net.agent import cmd_agent

    return cmd_agent(args)


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

    def add_runtime_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mappers", type=int, default=4)
        p.add_argument("--reducers", type=int, default=4)
        p.add_argument("--backend",
                       choices=("serial", "thread", "process"),
                       default=None,
                       help="execution backend: serial (inline), thread "
                            "(default; GIL-bound CPU phases), or process "
                            "(forked workers, zero-copy mmap ingest)")
        p.add_argument("--baseline", action="store_true",
                       help="original runtime (no ingest chunks)")
        p.add_argument("--chunk-size", help="inter-file chunk size, e.g. 4MB")
        p.add_argument("--memory-budget",
                       help="intermediate container byte budget, e.g. 64MB; "
                            "spills to disk when exceeded")
        p.add_argument("--timeline", action="store_true",
                       help="render the pipeline timeline after the run")
        p.add_argument("--json", action="store_true",
                       help="emit the result as JSON instead of text")
        p.add_argument("--faults",
                       help="fault plan, e.g. "
                            "'ingest.read=once,record.corrupt=0.001'")
        p.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the deterministic fault plan")
        p.add_argument("--retry", type=int, default=None, metavar="N",
                       help="retry budget per fault site (default 3; "
                            "0 fails fast)")
        p.add_argument("--skip-budget", type=int, default=None, metavar="N",
                       help="max corrupt records to quarantine before "
                            "aborting (default 1000)")
        p.add_argument("--checkpoint-dir", metavar="DIR",
                       help="journal completed work under DIR so a killed "
                            "job can be resumed")
        p.add_argument("--resume", action="store_true",
                       help="resume from the journal in --checkpoint-dir "
                            "instead of starting fresh")
        p.add_argument("--job-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="stop admitting new work after SECONDS and "
                            "return the partial result marked DEGRADED")
        p.add_argument("--shards", type=int, default=None, metavar="N",
                       help="run the job scaled out across N supervised "
                            "shard worker processes (fault-tolerant "
                            "sharded runtime)")
        p.add_argument("--shard-dir", metavar="DIR",
                       help="working directory for shard pid files and "
                            "exchanged run files (default: a private "
                            "temporary directory)")
        p.add_argument("--peers", metavar="HOST:PORT,...",
                       help="place the shard workers on these remote "
                            "agents (requires --shards; start each with "
                            "'supmr agent --listen HOST:PORT'); "
                            "unreachable hosts degrade to local "
                            "execution with an identical digest")
        p.add_argument("--net-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="liveness and transfer deadline for --peers "
                            "runs (default 10)")
        p.add_argument("--io-budget", metavar="RATE",
                       help="token-bucket I/O bandwidth cap in bytes/s, "
                            "e.g. 64MB; throttles ingest reads and spill "
                            "writes (default: unthrottled)")
        p.add_argument("--io-burst", metavar="SIZE",
                       help="token-bucket burst capacity in bytes "
                            "(default: one second's worth of --io-budget)")
        p.add_argument("--tenant", default="default",
                       help="tenant the job is accounted to (QoS counters, "
                            "per-tenant service budgets)")
        p.add_argument("--io-priority", type=int, default=0,
                       help="bandwidth priority class for priority-aware "
                            "QoS policies (higher gets bandwidth first)")
        p.add_argument("--transport",
                       choices=("auto", "shm", "pipe"),
                       default=None,
                       help="process-backend result transport: shared-memory "
                            "segments (shm), queue pipes (pipe), or auto "
                            "(shm when /dev/shm works; the default)")
        p.add_argument("--ingest-readers", type=int, default=None, metavar="N",
                       help="concurrent ingest prefetch readers (N>1 enables "
                            "the multi-queue async ingest pipeline)")
        p.add_argument("--ingest-depth", type=int, default=None, metavar="N",
                       help="buffered-chunk window for the prefetch pipeline "
                            "(default: 1 for one reader, else readers+1)")

    p_wc = sub.add_parser("wordcount", help="run word count on real files")
    p_wc.add_argument("files", nargs="+")
    p_wc.add_argument("--files-per-chunk", type=int,
                      help="intra-file chunking (many small files)")
    p_wc.add_argument("--top", type=int, default=10,
                      help="print the first N output pairs")
    add_runtime_args(p_wc)
    p_wc.set_defaults(fn=_cmd_wordcount)

    p_sort = sub.add_parser("sort", help="run terasort on a real file")
    p_sort.add_argument("file")
    add_runtime_args(p_sort)
    p_sort.set_defaults(fn=_cmd_sort)

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
    p_serve.set_defaults(fn=_cmd_serve)

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
    p_sub_wc.add_argument("--files-per-chunk", type=int)
    add_runtime_args(p_sub_wc)
    p_sub_sort = submit_sub.add_parser("sort")
    p_sub_sort.add_argument("file")
    add_runtime_args(p_sub_sort)
    p_submit.set_defaults(fn=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="show service / job state"
    )
    add_state_dir(p_status)
    p_status.add_argument("job_id", nargs="?", default=None)
    p_status.set_defaults(fn=_cmd_status)

    p_result = sub.add_parser(
        "result", help="fetch a finished job's JSON report (incl. digest)"
    )
    add_state_dir(p_result)
    p_result.add_argument("job_id")
    p_result.set_defaults(fn=_cmd_result)

    p_cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    add_state_dir(p_cancel)
    p_cancel.add_argument("job_id")
    p_cancel.set_defaults(fn=_cmd_cancel)

    p_shutdown = sub.add_parser(
        "shutdown", help="ask the daemon to drain and exit"
    )
    add_state_dir(p_shutdown)
    p_shutdown.set_defaults(fn=_cmd_shutdown)

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
    p_agents.set_defaults(fn=_cmd_agents)

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
    p_agent.set_defaults(fn=_cmd_agent)

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
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return classify_exception(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
