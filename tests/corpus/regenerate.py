"""Rewrite the standing corpus: each spec file run under each option set.

``specs/NAME.txt`` is a system file; ``expected/NAME.txt`` holds, for each
entry of OPTION_SETS in order, the exit code, the report (stdout), stderr
and the CSV of one ``analyze`` run made in this process.  The test
``tests/test_corpus.py`` reruns every file and compares byte for byte, so a
change of behaviour shows up as a diff of the expected files.  Run from the
repository root:

    PYTHONPATH=src python tests/corpus/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"
EXPECTED = HERE / "expected"
OPTION_SETS = (
    (),
    ("--rmax", "1e-9"),
    ("--rmax", "1e-10", "--samples", "4"),
    ("--order", "2", "--samples", "5"),
    ("--rmax", "1e6", "--samples", "4"),
)


def spec_files() -> list[Path]:
    return sorted(SPECS.glob("*.txt"))


def run(spec: Path, args: tuple[str, ...]) -> str:
    """One ``analyze`` run of ``spec`` with ``args``, rendered as a corpus entry."""
    from pwperiod.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "rows.csv"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(spec), *args, "--csv", str(csv), "--no-timestamp"])
        rows = csv.read_text(encoding="utf-8") if csv.exists() else "(not written)\n"
    return (f"### analyze {spec.name} {' '.join(args)}".rstrip() + f"\nexit: {code}\n"
            f"--- report\n{out.getvalue()}--- stderr\n{err.getvalue()}--- csv\n{rows}")


def corpus_text(spec: Path) -> str:
    """The expected file of ``spec``: its runs under every option set."""
    return "".join(run(spec, args) for args in OPTION_SETS)


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for spec in spec_files():
        (EXPECTED / spec.name).write_text(corpus_text(spec), encoding="utf-8")


if __name__ == "__main__":
    main()
