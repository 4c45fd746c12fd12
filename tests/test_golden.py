"""The exact stdout of the CLI on the shipped examples.

Each ``.out`` file in ``tests/golden/`` holds the bytes one command printed
when it was recorded; kernel changes that claim to keep the output must
keep them.  Rerecord a file only for a change that means to alter that
output.  A ``.poly`` file there is a ``polyinv poly`` script whose output
is pinned the same way, and so is an ``.imp`` file there under
``polyinv analyze`` with the options ``IMP_OPTIONS`` gives it.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from polyinv.cli import main

from .paths import example_text

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "reach-water": ("reach", "water.lha"),
    "reach-fischer": ("reach", "fischer.lha"),
    "reach-scheduler": ("reach", "scheduler.lha"),
    "reach-scheduler-powerset": ("reach", "scheduler.lha", "--domain", "powerset", "--delay", "2"),
    "reach-scheduler-records": (
        "reach", "scheduler.lha", "--format", "records", "--project", "k1,k2",
    ),
    "analyze-countdown": ("analyze", "countdown.imp"),
    "analyze-countdown-assume": ("analyze", "countdown.imp", "--assume", "x0>=1, x1=1"),
}


SCRIPTS = sorted(path.stem for path in GOLDEN.glob("*.poly"))
PROGRAMS = sorted(path.stem for path in GOLDEN.glob("*.imp"))

IMP_OPTIONS = {
    # an equality test split by the powerset filter, and a memoized inner loop
    # products over bounded, half-unbounded and integer-empty factor ranges
    "analyze-products": (
        "--assume", "a>=-2, a<=3, b>=1, b<=4, c>=0, c<=2, p>=1, q<=-1",
    ),
    "analyze-split": ("--domain", "powerset", "--delay", "1", "--assume", "x=0, y=0"),
}


def assert_recorded(name, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_is_the_recorded_bytes(name, tmp_path):
    command, example, *options = CASES[name]
    path = tmp_path / example
    path.write_text(example_text(example))
    assert_recorded(name, [command, str(path), *options])


@pytest.mark.parametrize("name", SCRIPTS)
def test_poly_script_prints_the_recorded_bytes(name):
    # every poly operation on NNC and generator-built operands
    assert_recorded(name, ["poly", str(GOLDEN / f"{name}.poly")])


@pytest.mark.parametrize("name", PROGRAMS)
def test_analyzed_program_prints_the_recorded_bytes(name):
    assert_recorded(name, ["analyze", str(GOLDEN / f"{name}.imp"), *IMP_OPTIONS[name]])
