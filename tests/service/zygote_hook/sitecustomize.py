"""Test hook for ``tests/service/test_zygote.py``.

The daemon under test is started with this directory first on
``PYTHONPATH``, so the daemon and the zygote it execs both run this file
at interpreter start.  With ``ZYGOTE_TEST_HOOK`` set it wraps
``repro.core.supmr.run_job`` *before* ``repro.service.runner`` binds the
name, which puts test code inside every forked runner without touching
``src/``:

``exit7:<marker>``
    the first runner to get here (it creates ``<marker>``) leaves with
    ``os._exit(7)`` once its journal holds a completed round — an
    unclassified crash, mid-job, that is not a signal;
``identity``
    every runner prints what the runtime names things by — a transport
    nonce, a spill dir, a uuid, the global PRNG — to its ``runner.log``;
``exit-contract:<dir>``
    every runner, its job done, leaves behind what a way out must
    settle — an ``atexit`` hook, a stdout line with no newline, a
    ``logging`` record buffered until ``logging.shutdown``, a non-daemon
    thread still running — and one thing it must not pay for: a global
    of a module the runner loaded, whose ``__del__`` only interpreter
    teardown would run.  Each one that is settled leaves a marker file
    in ``<dir>``;
``raise``
    every runner's job raises a plain ``RuntimeError`` — a failure no
    exit code classifies.
"""

import os

_MODE = os.environ.get("ZYGOTE_TEST_HOOK", "")

if _MODE:
    import repro.core.supmr as _supmr

    _real_run_job = _supmr.run_job

    def _exit7_once_a_round_is_journaled(checkpoint_dir, marker):
        import json
        import threading
        import time

        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return  # a later attempt: run to the end

        def watch():
            journal = os.path.join(checkpoint_dir, "journal.json")
            while True:
                try:
                    with open(journal) as fh:
                        state = json.load(fh)["payload"]
                    if state.get("completed_rounds"):
                        os._exit(7)
                except (OSError, ValueError, KeyError):
                    pass
                time.sleep(0.002)

        threading.Thread(target=watch, daemon=True).start()

    def _print_identity():
        import random
        import tempfile
        import uuid

        from repro.xfer.segments import new_nonce

        spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
        os.rmdir(spill_dir)
        print("identity", os.getpid(), new_nonce(), spill_dir,
              uuid.uuid4().hex, random.random(), flush=True)

    class _TeardownWitness:
        """Marks ``teardown`` when deleted — which, for a module global,
        only interpreter teardown does."""

        def __init__(self, mark):
            self._mark = mark

        def __del__(self):
            self._mark("teardown")

    def _leave_things_to_settle(marker_dir):
        import atexit
        import logging
        import sys
        import threading
        import time
        import types
        from logging.handlers import MemoryHandler

        # bound as defaults: at teardown the modules they live in may be gone
        def mark(name, _open=os.open, _close=os.close, _join=os.path.join,
                 _flags=os.O_CREAT | os.O_WRONLY):
            _close(_open(_join(marker_dir, name), _flags, 0o644))

        def linger():
            time.sleep(0.3)
            mark("thread")

        atexit.register(mark, "atexit")
        sys.stdout.write("exit-contract: a line with no newline")
        log = logging.getLogger("zygote-hook")
        log.propagate = False
        log.addHandler(MemoryHandler(
            1000, flushLevel=logging.CRITICAL,
            target=logging.StreamHandler(sys.stderr),
        ))
        log.warning("exit-contract: a record only logging.shutdown flushes")
        threading.Thread(target=linger, daemon=False).start()
        # A module of the runner's own: teardown leaves the globals of
        # the modules the zygote froze (gc.freeze) alone, not this one's.
        witness = types.ModuleType("zygote_hook_witness")
        witness.witness = _TeardownWitness(mark)
        sys.modules[witness.__name__] = witness

    def _run_job(job, options):
        if _MODE.startswith("exit7:"):
            _exit7_once_a_round_is_journaled(
                options.checkpoint_dir, _MODE.partition(":")[2]
            )
        elif _MODE == "identity":
            _print_identity()
        elif _MODE == "raise":
            raise RuntimeError("zygote test hook: no exit code classifies this")
        result = _real_run_job(job, options)
        if _MODE.startswith("exit-contract:"):
            _leave_things_to_settle(_MODE.partition(":")[2])
        return result

    _supmr.run_job = _run_job
