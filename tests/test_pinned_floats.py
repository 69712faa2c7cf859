"""Simulated and sampled floats, pinned bit for bit.

test_report_determinism compares two runs of the same code, so it cannot
see a change in float bits.  These values were read as ``float.hex`` before
``Poly.eval_float`` and ``eval_points`` read a cached float term table; any
change in evaluation order or rounding moves them.
"""

import pytest
from liftbench import gen

from liftlyap import cli

FIELDS = ("simulation.final_norm", "simulation.final_vstar", "lift.sphere_min", "feedback.residual_norm")

PINNED = {
    "ex_ps": ("0x1.7cd79b623c001p-15", "0x1.1b486570ffb88p-30", "0x1.47ae147ae147ap-8", "0x0.0p+0"),
    "ex_fa": ("0x1.7cd79b623c001p-15", "0x1.1b486570ffb88p-30", "0x1.47ae147ae147ap-8", "0x0.0p+0"),
    "lift-exact/7/0": ("0x1.39f425366db2ap-14", "0x1.81070bd737d1dp-29", "0x1.4653aa62211dfp-8", "0x0.0p+0"),
    # pointwise least-squares feedback: the non-symbolic closed loop
    "simulate-pointwise/7/0": ("0x1.b8c2d87f35544p-58", "0x1.7b6f2e410f9aap-116", "0x1.4616aeb07a76ep-8", "0x0.0p+0"),
}


def _spec(case: str) -> dict:
    if "/" not in case:
        return cli.load_spec(cli.fixture_path(case))
    workload, seed, index = case.split("/")
    return gen.instance(workload, int(seed), int(index)).spec


@pytest.mark.parametrize("case", sorted(PINNED))
def test_report_floats_are_pinned(case):
    report, code = cli.run("report", cli.build_problem(_spec(case)))
    assert code == cli.EXIT_OK
    got = tuple(float.hex(report[section][key]) for section, key in (f.split(".") for f in FIELDS))
    assert got == PINNED[case]
