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
    nonce, a spill dir, a uuid, the global PRNG — to its ``runner.log``.
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

    def _run_job(job, options):
        if _MODE.startswith("exit7:"):
            _exit7_once_a_round_is_journaled(
                options.checkpoint_dir, _MODE.partition(":")[2]
            )
        elif _MODE == "identity":
            _print_identity()
        return _real_run_job(job, options)

    _supmr.run_job = _run_job
