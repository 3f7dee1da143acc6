"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's artifacts (see
DESIGN.md's experiment index).  Besides pytest-benchmark's timing
table, each experiment writes its reproduced rows to
``benchmarks/results/<experiment>.txt`` so the artifact survives
output capturing and can be diffed against EXPERIMENTS.md.  When the
caller also passes the structured rows, they are written as
``results/<experiment>.json`` so downstream tooling does not have to
re-parse the rendered text; instrumented experiments can additionally
persist their observability record as
``results/<experiment>.metrics.json`` via the ``record_metrics``
fixture, which is where the perf trajectory (states explored, phase
timings) accumulates.
"""

from __future__ import annotations

import json
import pathlib
import platform
from typing import Mapping, Optional, Sequence

import numpy
import pytest

from repro.obs import Recorder

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def environment_stanza(engine: Optional[str] = None) -> Mapping[str, object]:
    """The provenance block every results row carries.

    Perf rows are only comparable across machines when the payload says
    which engine ran and on which interpreter/NumPy.
    """
    return {
        "engine": engine,
        "numpy": str(numpy.__version__),
        "python": platform.python_version(),
    }


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Write (and echo) a rendered experiment table.

    Usage: ``record_table("e05_theorem6", table_text)``; pass the
    structured rows too — ``record_table(name, text, rows=rows)`` — to
    also emit ``results/<name>.json``.
    """

    def _record(
        name: str,
        text: str,
        rows: Optional[Sequence[Mapping[str, object]]] = None,
        engine: Optional[str] = None,
    ) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        if rows is not None:
            json_path = results_dir / f"{name}.json"
            json_path.write_text(
                json.dumps(
                    {
                        "environment": dict(environment_stanza(engine)),
                        "rows": [dict(row) for row in rows],
                    },
                    indent=2,
                    default=str,
                )
                + "\n"
            )
        print(f"\n[{name}]\n{text}")

    return _record


@pytest.fixture
def record_metrics(results_dir):
    """Persist an experiment's observability record as metrics JSON.

    Usage: build a :class:`repro.obs.Recorder`, pass it as
    ``instrumentation=`` to the checker/simulator calls under
    measurement, then ``record_metrics("e05_theorem6", recorder)``.
    Writes ``results/<name>.metrics.json`` next to the rendered table.
    """

    def _record(name: str, recorder: Recorder) -> None:
        payload = recorder.record().to_dict()
        meta = payload.get("meta", {})
        engine = meta.get("engine") if isinstance(meta, dict) else None
        payload["environment"] = dict(
            environment_stanza(engine if isinstance(engine, str) else None)
        )
        path = results_dir / f"{name}.metrics.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    return _record
