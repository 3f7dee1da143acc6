"""A memory error ends the check on the engine that raised it.

Every lower engine holds more per state than vector (packed Python
ints, then tuple frozensets), so none can finish where vector ran out.
K-state(7,8) has 2,097,152 states: vector decides it in about 500 MiB
of address space, and a 350 MiB ``RLIMIT_AS`` stops it mid-check.  The
CLI must then end at once with exit status 2 (never 1, which means
"refuted"), one ``error:`` line naming the engine and ``--mem-budget``,
and the ``--obs-out`` record, with one ``engine.out_of_memory`` event
and no runtime fallback.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.gcl.pretty import render_program
from repro.obs import load_tagged_lines
from repro.rings import kstate_program

resource = pytest.importorskip("resource")

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="RLIMIT_AS bounds the address space as documented on Linux",
)

SRC = pathlib.Path(__file__).parents[2] / "src"

#: Below what vector needs for K-state(7,8), well above the interpreter
#: and NumPy at import.
LIMIT_BYTES = 350 * 1024 * 1024


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def test_out_of_memory_ends_the_check_with_exit_2(tmp_path):
    spec = tmp_path / "kstate_n7_k8.gcl"
    spec.write_text(render_program(kstate_program(7, 8)), encoding="utf-8")
    record = tmp_path / "run.jsonl"
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        # One BLAS thread: per-thread buffers would spend the limit.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "check", str(spec),
         "--obs-out", str(record)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    errors = [
        line for line in done.stderr.splitlines() if line.startswith("error:")
    ]
    assert len(errors) == 1
    assert "the vector engine ran out of memory" in errors[0]
    assert "--mem-budget" in errors[0]
    # The chain used to walk vector -> packed -> tuple for 30 s first.
    assert elapsed < 10.0
    events = load_tagged_lines(record, "event")
    exhausted = [row for row in events if row["name"] == "engine.out_of_memory"]
    assert len(exhausted) == 1
    assert exhausted[0]["fields"]["engine"] == "vector"
    assert exhausted[0]["fields"]["peak_rss_kib"] > 0
    assert not [
        row for row in events
        if row["name"] == "engine.fallback"
        and row["fields"].get("during") == "runtime"
    ]
    cli_errors = [row for row in events if row["name"] == "cli.error"]
    assert len(cli_errors) == 1
    assert cli_errors[0]["fields"]["exception"] == "MemoryError"
