import io
import json
from contextlib import redirect_stdout

import pytest

from grhecke import cli, center


def run_cli(*argv):
    """Invoke the CLI in process; returns (exit_code, stdout_text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    # the CLI mutates the module-level cache dir; restore the default
    center.set_cache_dir(None)
    return code, buf.getvalue()


def run_cli_json(*argv):
    code, out = run_cli(*argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture
def cli_runner():
    return run_cli


@pytest.fixture
def disk_cache(tmp_path):
    """The disk cache pointed at tmp_path; afterwards, no cache and no memos."""
    center.set_cache_dir(tmp_path)
    yield tmp_path
    center.set_cache_dir(None)
    center.clear_caches()
