import io
import json
import os
import pickle
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from grhecke import center, cli, coxeter, hecke


def run_cli(*argv):
    """Invoke the CLI in process; returns (exit_code, stdout_text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    # the CLI mutates the module-level cache dir; restore the default
    center.set_cache_dir(None)
    return code, buf.getvalue()


class _Reduces:
    def __init__(self, call):
        self.call = call

    def __reduce__(self):
        return self.call


def unpickle_call(make, *args):
    """
    Load a pickle stream that calls make(*args), as `__reduce__` of an object
    of make's class writes it, with arguments no such object would ship.
    """
    return pickle.loads(pickle.dumps(_Reduces((make, args))))


def child_env():
    """os.environ with this checkout's package first on PYTHONPATH, for child processes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def run_cli_json(*argv):
    code, out = run_cli(*argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture
def cli_runner():
    return run_cli


@pytest.fixture
def no_tables(monkeypatch):
    """Any read of a rank's index tables, in `coxeter` or `hecke`, fails the test."""
    def tables(n):
        pytest.fail(f"the rank-{n} tables were read")

    monkeypatch.setattr(coxeter, "_tables", tables)
    monkeypatch.setattr(hecke, "_tables", tables)


@pytest.fixture
def fresh_memos():
    """No memos before the test or after it: a memoized solve would skip a patch."""
    center.clear_caches()
    yield
    center.clear_caches()


@pytest.fixture
def disk_cache(tmp_path):
    """The disk cache pointed at tmp_path; afterwards, no cache and no memos."""
    center.set_cache_dir(tmp_path)
    yield tmp_path
    center.set_cache_dir(None)
    center.clear_caches()
