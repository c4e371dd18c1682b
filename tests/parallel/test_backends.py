"""Backend vocabulary, pool factory, and the inline serial executor."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.options import RuntimeOptions
from repro.errors import ConfigError
from repro.parallel.backends import (
    ExecutorBackend,
    SerialExecutor,
    fork_available,
    make_pool,
    resolve_backend,
)


class TestResolve:
    def test_strings_resolve(self):
        assert resolve_backend("serial") is ExecutorBackend.SERIAL
        assert resolve_backend("THREAD") is ExecutorBackend.THREAD
        assert resolve_backend("process") is ExecutorBackend.PROCESS

    def test_enum_passes_through(self):
        assert resolve_backend(ExecutorBackend.THREAD) is ExecutorBackend.THREAD

    def test_unknown_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown executor backend"):
            resolve_backend("gpu")


class TestOptionsIntegration:
    def test_default_is_thread(self):
        assert RuntimeOptions().executor_backend is ExecutorBackend.THREAD

    def test_string_normalized_at_construction(self):
        opts = RuntimeOptions(executor_backend="process")
        assert opts.executor_backend is ExecutorBackend.PROCESS

    def test_bad_backend_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            RuntimeOptions(executor_backend="warp-drive")

    def test_with_preserves_backend(self):
        opts = RuntimeOptions(executor_backend="serial").with_(num_mappers=2)
        assert opts.executor_backend is ExecutorBackend.SERIAL


class TestMakePool:
    def test_thread_backend_gets_thread_pool(self):
        with make_pool("thread", 2) as pool:
            assert isinstance(pool, ThreadPoolExecutor)

    def test_serial_backend_gets_serial_executor(self):
        with make_pool("serial", 4) as pool:
            assert isinstance(pool, SerialExecutor)

    @pytest.mark.skipif(not fork_available(), reason="needs os.fork")
    def test_process_backend_parent_pool_is_inert(self):
        # Process phases fork per wave; the parent-side pool must not
        # multiply threads underneath them.
        with make_pool("process", 4) as pool:
            assert isinstance(pool, SerialExecutor)


class TestSerialExecutor:
    def test_submit_runs_inline_and_resolves(self):
        with SerialExecutor() as pool:
            future = pool.submit(lambda a, b: a + b, 2, 3)
            assert future.done()
            assert future.result() == 5

    def test_submit_parks_exceptions(self):
        with SerialExecutor() as pool:
            future = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result()

    def test_map_protocol(self):
        with SerialExecutor() as pool:
            assert list(pool.map(lambda x: x * 2, [1, 2, 3])) == [2, 4, 6]

    def test_map_runs_each_call_as_its_result_is_taken(self):
        """A serial wave holds one map task's delta at a time."""
        calls = []

        def task(x):
            calls.append(x)
            return x

        with SerialExecutor() as pool:
            results = pool.map(task, [1, 2, 3])
            assert calls == []
            assert next(results) == 1
            assert calls == [1]
            assert list(results) == [2, 3]
