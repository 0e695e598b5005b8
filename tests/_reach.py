"""Which functions of ``src/repro`` the committed traffic never enters.

    python -m tests._reach

runs, in this one process, under ``sys.setprofile`` and
``threading.setprofile`` (so worker threads count too):

* ``repro scenario verify scenarios`` (the digest-pinned matrix);
* every ``benchmarks/e2e`` workload at ``--seed 1 --smoke --trace 1``;
* the paper benches (``pytest benchmarks --ignore=benchmarks/e2e``);
* every script in ``examples/``;
* every fenced ``python -m repro ...`` command of ``README.md`` and
  ``docs/`` except the two that block (``serve --listen``, ``tail``),
  paths under ``/tmp`` moved into a scratch directory.

Every entered code object is mapped back to the definition it runs —
by file, first line (decorators included, as ``co_firstlineno``
counts them) and name, so no ``co_qualname`` is needed — and every
``def`` under ``src/repro`` that was never entered must be listed in
``tests/reach_allowlist.txt``, one ``module:qualname  category`` a
line, under one of :data:`CATEGORIES`.  An ``api`` line also cites the
section of ``docs/*.md`` that documents it, by its heading's anchor
(``docs/NAME.md#heading``).  The check fails (exit 1) on an
unreached definition that is not listed, on a listed one that is now
reached or no longer exists (so the list cannot rot), and on any
traffic part that exits non-zero.  Before deleting anything, run it:
what it reports unreached and unlisted is what no committed traffic
needs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ALLOWLIST = Path(__file__).resolve().with_name("reach_allowlist.txt")

#: why a definition may stay although no traffic enters it
CATEGORIES = {
    "cli": "a repro subcommand handler, and what only it calls",
    "api": "an HTTP endpoint, or a Service / ObsClient method a cited "
           "docs/*.md line documents",
    "reference": "what a test compares against: a reference "
                 "implementation, or the accessor it reads an outcome by",
    "safety": "a fault, refusal or recovery path",
    "abstract/dunder": "an abstract method, or one only the "
                       "interpreter calls",
    "fuzz": "scenarios/fuzz.py's generator (ROADMAP item 8(c))",
}

#: the fenced commands that serve or follow until interrupted
BLOCKING = ({"serve", "--listen"}, {"tail"})


class AllowlistError(ValueError):
    """A malformed ``reach_allowlist.txt`` line."""


# ----------------------------------------------------------------------
# definitions and the code objects that ran them
# ----------------------------------------------------------------------

def definitions(root: Path) -> dict:
    """``(file, first line, name) -> "module:qualname"`` for every
    ``def`` in every module under the package directory ``root``.
    A nested definition's qualname runs through its enclosing ones
    (``Class.method``, ``outer.inner``)."""
    out = {}
    base = root.resolve().parent
    for path in sorted(root.resolve().rglob("*.py")):
        parts = list(path.relative_to(base).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        filename = str(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    out[(filename, first, child.name)] = (
                        f"{module}:{qualname}"
                    )
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), filename), "")
    return out


class Recorder:
    """Collects every code object that runs, on any thread started
    while it is active, while it is active."""

    def __init__(self):
        self.codes: set = set()

    def __enter__(self):
        add = self.codes.add

        # every event's frame is one that was entered: a c_call's or a
        # return's frame has had its call event already
        def profile(frame, event, arg):
            add(frame.f_code)

        self._saved = sys.getprofile(), threading.getprofile()
        threading.setprofile(profile)
        sys.setprofile(profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._saved[0])
        threading.setprofile(self._saved[1])
        return False


def reached(codes: Iterable, defs: dict) -> set:
    """The qualnames of ``defs`` that one of ``codes`` runs."""
    real = {}
    out = set()
    for code in codes:
        filename = code.co_filename
        if filename not in real:
            real[filename] = os.path.realpath(filename)
        name = defs.get((real[filename], code.co_firstlineno, code.co_name))
        if name is not None:
            out.add(name)
    return out


# ----------------------------------------------------------------------
# the allowlist
# ----------------------------------------------------------------------

def read_allowlist(text: str, docs_root: Path = REPO) -> dict:
    """``{"module:qualname": category}`` from the allowlist ``text``
    (``#`` comments and blank lines skipped).  An ``api`` line's third
    field is a ``docs/NAME.md#heading`` whose section must exist and
    name the definition; any other category takes exactly two
    fields."""
    out = {}
    for number, raw in enumerate(text.splitlines(), 1):
        # a comment's ``#`` opens the line or follows a blank; a cite's
        # ``#`` follows the file name
        fields = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].split()
        if not fields:
            continue
        where = f"reach_allowlist.txt:{number}"
        if len(fields) < 2 or ":" not in fields[0]:
            raise AllowlistError(f"{where}: want 'module:qualname  category'")
        name, category, *cite = fields
        if category not in CATEGORIES:
            raise AllowlistError(
                f"{where}: unknown category {category!r}; "
                f"known: {', '.join(CATEGORIES)}"
            )
        if (category == "api") != (len(cite) == 1) or len(cite) > 1:
            raise AllowlistError(
                f"{where}: an api line, and only an api line, cites one "
                "docs/NAME.md#heading"
            )
        if cite:
            _check_cite(where, name, cite[0], docs_root)
        if name in out:
            raise AllowlistError(f"{where}: {name} is listed twice")
        out[name] = category
    return out


def _check_cite(where: str, name: str, cite: str, docs_root: Path) -> None:
    doc, _, anchor = cite.partition("#")
    path = docs_root / doc
    if not (doc.startswith("docs/") and doc.endswith(".md")
            and path.is_file() and anchor):
        raise AllowlistError(f"{where}: {cite} is no docs/NAME.md#heading")
    text = doc_section(path.read_text(), anchor)
    if text is None:
        raise AllowlistError(f"{where}: {doc} has no heading #{anchor}")
    # a method or nested function by its own name (or an enclosing
    # function's); a front-door handler ``_serve_<route>`` by its route
    parts = name.partition(":")[2].split(".")
    names = [part.lstrip("_") for part in parts[1:] or parts]
    names += [
        "/" + n[len("serve_"):] for n in names if n.startswith("serve_")
    ]
    if not any(n in text for n in names):
        raise AllowlistError(
            f"{where}: {cite} does not mention {names[0]!r}"
        )


def heading_anchor(title: str) -> str:
    """The anchor GitHub gives a Markdown heading: lower case, every
    character but letters, digits, ``_``, ``-`` and spaces dropped,
    spaces made hyphens."""
    kept = "".join(c for c in title.lower() if c.isalnum() or c in "_- ")
    return kept.replace(" ", "-")


def doc_section(markdown: str, anchor: str) -> str | None:
    """The section of ``markdown`` under the heading whose anchor is
    ``anchor`` — its heading line down to the next heading of the same
    or a higher level — or None if no heading has it.  A line in a
    fenced code block (a shell comment, say) is no heading."""
    lines = markdown.splitlines()
    start = level = None
    fenced = False
    for number, line in enumerate(lines):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        hashes = len(line) - len(line.lstrip("#"))
        if fenced or not 0 < hashes <= 6 or line[hashes:hashes + 1] != " ":
            continue
        if start is None:
            if heading_anchor(line[hashes:].strip()) == anchor:
                start, level = number, hashes
        elif hashes <= level:
            return "\n".join(lines[start:number])
    return None if start is None else "\n".join(lines[start:])


def audit(defs: dict, entered: set, allowlist: dict) -> list:
    """Every way the allowlist and the unreached set disagree."""
    defined = set(defs.values())
    problems = [
        f"unreached, not listed: {name}"
        for name in sorted(defined - entered - set(allowlist))
    ]
    problems += [
        f"listed, but reached: {name}  {allowlist[name]}"
        for name in sorted(set(allowlist) & entered)
    ]
    problems += [
        f"listed, but not defined: {name}  {allowlist[name]}"
        for name in sorted(set(allowlist) - defined)
    ]
    return problems


def check(root: Path, traffic: Iterable, allowlist_text: str,
          docs_root: Path = REPO) -> tuple:
    """Run ``traffic`` — ``(label, callable returning an exit code)``
    pairs — under a :class:`Recorder` and audit the definitions under
    ``root`` against ``allowlist_text``.  ``traffic`` is iterated under
    the recorder too, so a generator that imports the program counts
    what runs at import time.  Returns ``(report lines, problems)``;
    the check passes when ``problems`` is empty."""
    allowlist = read_allowlist(allowlist_text, docs_root)
    defs = definitions(root)
    problems = []
    parts = 0
    with Recorder() as recorder:
        for label, part in traffic:
            parts += 1
            status = _run_part(part)
            if status:
                problems.append(f"traffic {label!r} exited {status}")
    entered = reached(recorder.codes, defs)
    unreached = set(defs.values()) - entered
    by_category = Counter(
        allowlist[name] for name in unreached if name in allowlist
    )
    report = [
        f"{len(unreached)} of {len(set(defs.values()))} definitions under "
        f"{root.name}/ never entered by {parts} traffic parts",
        "allowlisted: " + ", ".join(
            f"{category} {by_category[category]}" for category in CATEGORIES
        ),
    ]
    return report, problems + audit(defs, entered, allowlist)


def _run_part(part: Callable) -> int:
    """``part()``'s exit code, a ``SystemExit`` read as one."""
    try:
        return part() or 0
    except SystemExit as stop:
        code = stop.code
        return code if isinstance(code, int) else (0 if code is None else 1)


# ----------------------------------------------------------------------
# the committed traffic
# ----------------------------------------------------------------------

def committed_traffic(scratch: str):
    """The committed traffic, one ``(label, callable)`` part at a time
    (a generator: the program is imported when it is first iterated)."""
    from repro.cli import main as repro
    from benchmarks.e2e.run import main as e2e
    from e2e.workloads import SPECS  # run.py put benchmarks/ on the path
    from tests.test_docs import DOC_FILES, documented_commands

    yield ("repro scenario verify scenarios",
           lambda: repro(["scenario", "verify", "scenarios"]))
    for workload in SPECS:
        argv = ["--workload", workload, "--seed", "1", "--smoke",
                "--trace", "1"]
        yield f"e2e {workload}", lambda argv=argv: e2e(argv)
    yield "paper benches", lambda: _pytest(
        [str(REPO / "benchmarks"),
         f"--ignore={REPO / 'benchmarks' / 'e2e'}"]
    )
    for example in sorted((REPO / "examples").glob("*.py")):
        yield (f"examples/{example.name}",
               lambda path=str(example): _script(path))
    seen = []
    for doc in DOC_FILES:
        for argv in documented_commands(doc.read_text()):
            argv = [
                os.path.join(scratch, word[len("/tmp/"):])
                if word.startswith("/tmp/") else word
                for word in argv
            ]
            if argv in seen or any(b <= set(argv) for b in BLOCKING):
                continue
            seen.append(argv)
            yield f"repro {' '.join(argv)}", lambda argv=argv: repro(argv)


def _pytest(args: list) -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider"] + args))


def _script(path: str) -> int:
    runpy.run_path(path, run_name="__main__")
    return 0


def main() -> int:
    for path in (str(SRC), str(REPO)):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as scratch:
        traffic = committed_traffic(scratch)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            report, problems = check(
                SRC / "repro", traffic, ALLOWLIST.read_text()
            )
    for line in report + problems:
        print(line)
    if any(p.startswith("traffic") for p in problems):
        print("--- traffic output ---")
        print(out.getvalue()[-20000:])
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
