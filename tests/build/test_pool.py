"""The warmed fork pool: workers inherit both translators."""

import os
import subprocess
import sys

import pytest

import repro
from repro.build import pool as pool_module
from repro.build.pool import fork_available
from repro.serve.app import ServeApp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# Runs in a fresh interpreter, so neither translator exists before the
# warm step.  After warming, the parent makes AGSpec.finish -- the one
# path that loads or builds a translator's tables -- raise; a worker
# that needed a translator of its own would fail its job.
WORKER_SCRIPT = r'''
from repro.ag.spec import AGSpec
from repro.build.pool import ForkPool, warm_grammar
from repro.vhdl.compiler import Compiler

SOURCE = """
entity e is end e;
architecture a of e is
  signal n : integer := 2 + 3 * 4;
begin
  n <= n + 1 after 5 ns;
end a;
"""


def warm():
    warm_grammar()

    def refuse(self, allow_conflicts=False):
        raise AssertionError("worker generated translator %s" % self.name)

    AGSpec.finish = refuse


def job(i):
    result = Compiler(strict=False).compile(SOURCE, "e%d.vhd" % i)
    return result.ok, result.messages


with ForkPool(jobs=2, warm=warm) as pool:
    results = pool.map_ordered(job, [(0,), (1,)])
assert results == [(True, []), (True, [])], results
print("ok")
'''


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_forked_worker_builds_and_loads_no_translator():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", WORKER_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_serve_warms_with_the_pool_warm_step(monkeypatch):
    calls = []
    monkeypatch.setattr(pool_module, "warm_grammar",
                        lambda: calls.append("warm"))
    ServeApp.warm(None)
    assert calls == ["warm"]
