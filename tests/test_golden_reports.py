"""The exact fields of reports, pinned to a golden file.

Every command on the four bundled fixtures, and ``report`` on the first
``FIXED_COUNT`` instances of each benchmark workload at seed 7.  A report
is flattened to its non-float leaves by path (strings, rationals printed as
strings, booleans, counts, verdicts, reasons and ``None``), plus the exit
code; floats are left out, since eigenvalues, gaps and norms come from
LAPACK or from summation.  Regenerate the file after a deliberate report
change with::

    PYTHONPATH=src:. python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

from liftbench import gen

from liftlyap import cli

GOLDEN = Path(__file__).with_name("golden_reports.json")
FIXTURES = ("ex_ps", "ex_di", "ex_curv", "ex_fa")
SEED = 7


def exact_fields(value, path: str = "") -> dict:
    """The non-float leaves of a report, keyed by their dotted path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {} if isinstance(value, float) else {path: value}
    out = {}
    for key, item in items:
        out.update(exact_fields(item, f"{path}.{key}" if path else str(key)))
    return out


def cases() -> dict:
    """(command, problem file) of each pinned run, by case name."""
    out = {
        f"{name}/{command}": (command, cli.load_spec(cli.fixture_path(name)))
        for name in FIXTURES
        for command in cli.COMMANDS
    }
    for workload in sorted(gen.WORKLOADS):
        for index in range(gen.FIXED_COUNT[workload]):
            inst = gen.instance(workload, SEED, index)
            out[inst.label] = ("report", inst.spec)
    return out


def exact_run(command: str, raw: dict) -> dict:
    report, code = cli.run(command, cli.build_problem(raw))
    return {"exit_code": code, **exact_fields(report)}


CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_report_fields_match_the_golden_file(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert exact_run(*CASES[case]) == golden[case]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: exact_run(*run) for case, run in CASES.items()}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
