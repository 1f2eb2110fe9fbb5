"""Byte-identical output: the README's CLI examples, the acceptance lines
and the ``--help`` texts.

Every CLI example in the README is run in each output format that its
subcommand takes, and its stdout compared byte for byte with a file under
``tests/golden/``.  An example whose subcommand takes no ``--format``
runs once, and its golden is the ``.text.out`` file.  The
acceptance suite is pinned by its status lines without the timings.  The
``--help`` text of the top-level parser and of each subcommand is pinned
at ``COLUMNS=80``, the width argparse wraps it to.
The files record the output of the tree before integer coefficients
became canonical; an intended output change regenerates them with

    PYTHONPATH=src python tests/test_golden.py --write

and says so in CHANGES.md.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from hopfgenus import acceptance, cli

GOLDEN = Path(__file__).parent / "golden"

FORMATS = ("text", "json", "csv")
# (name, argv without --format, formats to pass), one per README example;
# None runs the example without --format
EXAMPLES = [
    ("symm-d-classes", "symm identity-check --which d-classes --max-weight 20", (None,)),
    ("symm-a-classes", "symm identity-check --which a-classes --max-weight 20", (None,)),
    ("qsymm-hilbert", "qsymm hilbert --flavor associative --bound 12", FORMATS),
    ("qsymm-lyndon", "qsymm lyndon --bound 6", FORMATS),
    ("mzv-eval", "mzv eval --index (2,3) --error 1e-8", (None,)),
    ("tor-exterior", "tor --algebra exterior:5,9 --bound 20", FORMATS),
    ("series-thh", "series --which THH --bound 16", FORMATS),
    ("series-ktheory", "series --which KTheoryFiber --bound 16 --model igt0", FORMATS),
    ("genus-compute", "genus compute --manifold CP2 --series A-hat", FORMATS),
    ("genus-deform", "genus deform --manifold CP1 --series A-hat --t 1:1/3,3:0", FORMATS),
    ("genus-file", "genus compute --manifold-file {manifold} --series Todd", FORMATS),
    ("coaction", "coaction --manifold CP1 --class 1 --bound 8", (None,)),
]
CASES = [(name, argv, fmt) for name, argv, fmts in EXAMPLES for fmt in fmts]
SUBCOMMANDS = ("symm", "qsymm", "mzv", "tor", "series", "genus", "coaction", "acceptance")
HELP = [("help", [])] + [("help-" + cmd, [cmd]) for cmd in SUBCOMMANDS]


def cli_stdout(argv, fmt):
    args = argv.format(manifold=GOLDEN / "my_manifold.json").split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args + (["--format", fmt] if fmt else []))
    return "exit %d\n%s" % (code, out.getvalue())


def help_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(argv + ["--help"])
        except SystemExit as exc:
            code = exc.code
    return "exit %d\n%s" % (code, out.getvalue())


def acceptance_lines():
    return "".join(
        "[%s] %2d %-20s %s\n" % (r["status"].upper(), r["id"], r["name"], r["detail"])
        for r in acceptance.run_all()
    )


def _path(name, fmt):
    return GOLDEN / ("%s.%s.out" % (name, fmt or "text"))


@pytest.mark.parametrize("name,argv,fmt", CASES, ids=["%s-%s" % (n, f or "text") for n, _, f in CASES])
def test_readme_cli_example(name, argv, fmt):
    assert cli_stdout(argv, fmt) == _path(name, fmt).read_text()


@pytest.mark.parametrize("name,argv", HELP, ids=[name for name, _ in HELP])
def test_help_text(name, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_stdout(argv) == (GOLDEN / ("%s.out" % name)).read_text()


def test_acceptance_status_lines():
    assert acceptance_lines() == (GOLDEN / "acceptance.out").read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for name, argv, fmt in CASES:
        _path(name, fmt).write_text(cli_stdout(argv, fmt))
    os.environ["COLUMNS"] = "80"
    for name, argv in HELP:
        (GOLDEN / ("%s.out" % name)).write_text(help_stdout(argv))
    (GOLDEN / "acceptance.out").write_text(acceptance_lines())
