"""Documentation reference checker: no dangling paths or symbols.

`docs/*.md` and `README.md` point into the tree with
``path/to/file.py:Symbol.sub`` references.  This suite fails on any
reference to a file that does not exist or a symbol that is not
defined in it — which is what keeps the architecture docs honest as
the code moves.  The docs and the ``src/`` docstrings also cite CI jobs
by name (``scenario-matrix``, the ``*-smoke`` jobs); a cited job must be
a job of ``.github/workflows/ci.yml``, a store payload tag quoted
in ``docs/STORE.md`` must be one ``repro.store.codec`` writes, the
warm-index tag and column table it states must be the codec's
``INDEX_CODEC`` and ``INDEX_COLUMNS``, and a
``--flag`` the prose attributes to a ``repro`` subcommand must be an
option of that subcommand's parser, every fenced ``python -m repro
...`` command must be one the real parser accepts (parsed, never run),
the ``Service.memory()`` key list in ``docs/OBSERVABILITY.md`` must
be the keys a 2 x 2 service reports, ``docs/ARCHITECTURE.md`` must
cite every ``src/repro/service`` module, a ``*.md`` file a source under
``src/``, ``benchmarks/`` or ``tests/`` names must be in the repo, and
``docs/BENCHMARKS.md`` must list every name of
``repro.harness.figures.FIGURES``.
The CI ``docs`` job runs exactly this file.
"""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

DOC_FILES = sorted(
    list((REPO / "docs").glob("*.md")) + [REPO / "README.md"]
)

#: a repo path, optionally followed by :Symbol(.sub)* for .py files
REF = re.compile(
    r"\b((?:src|tests|benchmarks|examples|docs)/[A-Za-z0-9_*./\-]+)"
    r"(?::([A-Za-z_][A-Za-z0-9_.]*))?"
)


def references():
    out = []
    for doc in DOC_FILES:
        for match in REF.finditer(doc.read_text()):
            path, symbol = match.group(1), match.group(2)
            while path and path[-1] in ".,;:)'":
                path = path[:-1]
            out.append((doc.name, path, symbol))
    return out


REFS = references()


def test_docs_reference_the_tree_at_all():
    """The checker has teeth only if the docs actually use paths."""
    assert len(REFS) > 40
    assert any(sym for _, _, sym in REFS), "no path:Symbol references"


@pytest.mark.parametrize(
    "doc,path,symbol",
    REFS,
    ids=[f"{d}::{p}" + (f":{s}" if s else "") for d, p, s in REFS],
)
def test_reference_resolves(doc, path, symbol):
    if "*" in path:
        assert list(REPO.glob(path)), f"{doc}: glob {path} matches nothing"
        return
    target = REPO / path
    if path.endswith("/"):
        assert target.is_dir(), f"{doc}: dangling directory {path}"
        return
    assert target.exists(), f"{doc}: dangling reference {path}"
    if symbol is None:
        return
    assert path.endswith(".py"), f"{doc}: symbol on non-python {path}"
    source = target.read_text()
    for part in symbol.split("."):
        defined = re.search(
            rf"(?:^|\s)(?:class|def)\s+{re.escape(part)}\b"
            rf"|^{re.escape(part)}\s*[:=]",
            source,
            re.MULTILINE,
        )
        assert defined, f"{doc}: {path} does not define {part!r}"


#: a CI job cited by name: ``scenario-matrix`` or any ``<word>-smoke``
JOB = re.compile(r"\b(?:[a-z0-9]+-)+smoke\b|\bscenario-matrix\b")


def test_cited_ci_jobs_exist():
    """A drill that moved out of CI must take its citations with it."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    jobs = set(re.findall(r"^  ([a-z0-9-]+):$", workflow, re.MULTILINE))
    assert "scenario-matrix" in jobs, "ci.yml job names not recognised"
    sources = DOC_FILES + sorted((REPO / "src").rglob("*.py"))
    dangling = [
        f"{path.relative_to(REPO)}: {name}"
        for path in sources
        for name in sorted(set(JOB.findall(path.read_text())))
        if name not in jobs
    ]
    assert dangling == []


#: a store payload format tag: ``json+zlib/1``, ``columns+zlib/2``, ...
PAYLOAD_TAG = re.compile(r"\b\w+\+zlib/\d+")


def test_store_doc_quotes_only_payload_tags_the_codec_writes():
    """The format contract names each payload's tag; a tag the codec
    does not export means the doc describes a format that is gone —
    or one payload under another's tag."""
    from repro.store import codec

    exported = {
        value
        for value in (getattr(codec, name) for name in codec.__all__)
        if isinstance(value, str)
    }
    quoted = set(
        PAYLOAD_TAG.findall((REPO / "docs" / "STORE.md").read_text())
    )
    assert quoted == exported, (
        f"only in docs/STORE.md {sorted(quoted - exported)}, "
        f"only in the codec {sorted(exported - quoted)}"
    )


#: ``**Warm indexes: `tag`**`` — where docs/STORE.md names the format
INDEX_TAG = re.compile(r"\*\*Warm indexes: `([^`]+)`\*\*")
#: a row of its column table: ``| `name` | item | ...``
COLUMN_ROW = re.compile(r"^\| `(\w+)` \| (\w+) \|", re.MULTILINE)
#: what the table calls a ``struct`` item code
ITEM_NAMES = {"B": "u8", "H": "u16", "I": "u32", "Q": "u64"}


def index_format_drift(text: str) -> list:
    """How the warm-index format ``text`` (docs/STORE.md) documents
    differs from the one the codec writes: its tag, and its column
    table's names, item widths and order."""
    from repro.store.codec import INDEX_CODEC, INDEX_COLUMNS

    tags = INDEX_TAG.findall(text)
    _, _, table = text.partition("| column | item |")
    documented = COLUMN_ROW.findall(table.partition("\n\n")[0])
    written = [(name, ITEM_NAMES[code]) for name, code in INDEX_COLUMNS]
    drift = []
    if tags != [INDEX_CODEC]:
        drift.append(f"tag: documented {tags}, written {INDEX_CODEC!r}")
    if documented != written:
        drift.append(f"columns: documented {documented}, written {written}")
    return drift


def test_store_doc_states_the_index_format_the_codec_writes():
    """A format change edits ``INDEX_CODEC`` / ``INDEX_COLUMNS``; the
    document that is the format's contract must move with them."""
    assert index_format_drift((REPO / "docs" / "STORE.md").read_text()) == []


def test_the_format_check_sees_a_dropped_row_and_a_stale_tag():
    from repro.store.codec import INDEX_CODEC

    text = (REPO / "docs" / "STORE.md").read_text()
    row = re.search(r"^\| `count` \|.*\n", text, re.MULTILINE).group(0)
    (columns,) = index_format_drift(text.replace(row, ""))
    assert columns.startswith("columns:") and "count" in columns
    (tag,) = index_format_drift(
        text.replace(f"`{INDEX_CODEC}`**", "`columns+zlib/0`**")
    )
    assert tag.startswith("tag:") and "columns+zlib/0" in tag
    swapped = text.replace("| `path_len` | u8 |", "| `path_len` | u32 |")
    assert len(index_format_drift(swapped)) == 1


# ----------------------------------------------------------------------
# CLI flags the prose attributes to a ``repro`` subcommand
# ----------------------------------------------------------------------

def subcommand_flags() -> dict:
    """``"serve"`` / ``"scenario run"`` / ... -> the ``--options`` of
    that subcommand's parser, read off ``repro.cli.build_parser``."""
    from repro.cli import build_parser

    out = {}

    def walk(parser, path):
        if path:
            out[" ".join(path)] = {
                option
                for action in parser._actions
                for option in action.option_strings
                if option.startswith("--")
            }
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, path + [name])

    walk(build_parser(), [])
    return out


INLINE_CODE = re.compile(r"`([^`\n]+)`")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _command_of(words: list, commands: dict):
    """The longest subcommand path ``words`` spell right after
    ``repro`` — or at their very start, as in ``serve --listen``."""
    starts = [i + 1 for i, w in enumerate(words) if w == "repro"] or [0]
    for start in starts:
        for length in (2, 1):
            path = " ".join(words[start:start + length])
            if path in commands:
                return path
    return None


def dangling_flags(text: str, commands: dict) -> list:
    """``(subcommands, --flag)`` for every flag ``text`` attributes to
    a ``repro`` subcommand that has no such option.

    A code span or a fenced line that spells a subcommand attributes
    its flags to that subcommand.  A code span that *is* a flag
    (``--shards N``) is attributed to the subcommands the document
    spells anywhere; any of them may own it.  A span that starts with
    something else — another program's command line — is not ours.
    """
    fenced = [
        line
        for block in FENCE.findall(text)
        for line in block.replace("\\\n", " ").splitlines()
    ]
    spans = INLINE_CODE.findall(FENCE.sub("", text)) + fenced
    explicit, bare = [], []
    for span in spans:
        words = span.replace("<", " ").replace(">", " ").split()
        if not words:
            continue
        command = _command_of(words, commands)
        if command is not None:
            explicit.append((command, span))
        elif words[0].startswith("--"):
            bare.append(span)
    named = sorted({command for command, _ in explicit})
    out = [
        ((command,), flag)
        for command, span in explicit
        for flag in FLAG.findall(span)
        if flag not in commands[command]
    ]
    if named:
        known = set().union(*(commands[c] for c in named))
        out += [
            (tuple(named), flag)
            for span in bare
            for flag in FLAG.findall(span)
            if flag not in known
        ]
    return out


def test_every_flag_the_docs_attribute_to_a_subcommand_exists():
    """A flag deleted from the CLI must take its prose with it."""
    commands = subcommand_flags()
    assert "--shards" in commands["serve"], "parser walk found nothing"
    assert "--json" in commands["scenario run"]
    dangling = [
        f"{doc.name}: {flag} is no option of repro {' / '.join(owners)}"
        for doc in DOC_FILES
        for owners, flag in dangling_flags(doc.read_text(), commands)
    ]
    assert dangling == []


def test_the_flag_check_sees_a_deleted_and_a_misattributed_flag():
    commands = subcommand_flags()
    prose = (
        "Serve with `repro serve --shards 2`; racing can be seeded\n"
        "(`--no-such-seeding`), stores verified (`repro warm --listen`)"
        ".\n```\npython -m repro serve --dataset ppi \\\n"
        "    --gone-flag\npython3 other/tool.py --not-ours\n```\n"
        "`other/tool.py --quick` and `--verify` are fine.\n"
    )
    assert sorted(dangling_flags(prose, commands)) == [
        (("serve",), "--gone-flag"),
        (("serve", "warm"), "--no-such-seeding"),
        (("warm",), "--listen"),
    ]


# ----------------------------------------------------------------------
# fenced ``python -m repro ...`` commands, fed to the real parser
# ----------------------------------------------------------------------

REPRO_COMMAND = re.compile(r"\bpython3? -m repro\b(.*)")


def documented_commands(text: str) -> list:
    """The argv of every ``python -m repro ...`` command line in a
    fenced block of ``text`` (continuations joined, ``# comments``
    dropped)."""
    return [
        shlex.split(match.group(1), comments=True)
        for block in FENCE.findall(text)
        for line in block.replace("\\\n", " ").splitlines()
        for match in [REPRO_COMMAND.search(line)]
        if match
    ]


def parse_failure(argv: list):
    """What ``repro``'s parser says against ``argv`` (None = accepted).
    Only ``parse_args`` runs; no subcommand does."""
    from repro.cli import build_parser

    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()
        ):
            build_parser().parse_args(argv)
    except SystemExit as stop:
        if stop.code:  # --help exits 0
            return err.getvalue().strip().splitlines()[-1]
    return None


def test_every_documented_command_parses():
    """A documented command that exits 2 before doing anything — a
    required flag the line forgot, a choice that was renamed — is the
    first thing a reader tries."""
    commands = [
        (doc.name, argv)
        for doc in DOC_FILES
        for argv in documented_commands(doc.read_text())
    ]
    assert len(commands) > 15, "no fenced repro commands found"
    refused = [
        f"{name}: repro {' '.join(argv)}: {why}"
        for name, argv in commands
        for why in [parse_failure(argv)]
        if why
    ]
    assert refused == []


def test_the_command_check_sees_a_missing_required_flag():
    prose = (
        "```sh\n# race rewritings\n"
        "PYTHONPATH=src python -m repro race --algorithms GQL,SPA\n"
        "$ python -m repro serve --dataset ppi \\\n"
        "    --shards 2   # two shards\n"
        "python3 other/tool.py --not-ours\n```\n"
        "`python -m repro race` inline is prose, not a command.\n"
    )
    race, serve = documented_commands(prose)
    assert race == ["race", "--algorithms", "GQL,SPA"]
    assert serve == ["serve", "--dataset", "ppi", "--shards", "2"]
    assert "--dataset" in parse_failure(race)
    assert parse_failure(serve) is None
    assert parse_failure(["--help"]) is None
    assert "invalid choice" in parse_failure(["serve", "--dataset", "x"])


# ----------------------------------------------------------------------
# the Service.memory() and ftv_warm keys docs/OBSERVABILITY.md lists
# ----------------------------------------------------------------------


def memory_key_drift(
    text: str, reported, section: str = "Service.memory()"
) -> list:
    """How the ``section`` keys ``text`` lists — as ``**`section`
    keys:** `a`, `b`, ... .``, up to the sentence's full stop — differ
    from the keys a service ``reported``."""
    lists = re.findall(
        rf"\*\*`{re.escape(section)}` keys:\*\*(.*?)\.(?:\s|$)",
        text, re.DOTALL,
    )
    if len(lists) != 1:
        return [f"expected one key list, found {len(lists)}"]
    documented = set(INLINE_CODE.findall(lists[0]))
    drift = []
    if documented - set(reported):
        drift.append(
            f"documented, not reported: {sorted(documented - set(reported))}"
        )
    if set(reported) - documented:
        drift.append(
            f"reported, not documented: {sorted(set(reported) - documented)}"
        )
    return drift


@pytest.fixture(scope="module")
def memory_keys(tmp_path_factory):
    """The ``Service.memory()`` keys of a 2 x 2 service booted from a
    store (whose counters stay in ``store_metrics()``, not here)."""
    from repro.service import Service, ShardedCatalog
    from repro.store import StoreWriter

    root = str(tmp_path_factory.mktemp("store"))
    warm = ShardedCatalog(num_shards=2, replicas=2)
    warm.load("ppi", scale="tiny")
    StoreWriter(root).write_catalog(warm)
    svc = Service(shards=2, replicas=2, store=root)
    svc.load_dataset("ppi", scale="tiny")
    return sorted(svc.memory())


def test_observability_doc_lists_the_memory_keys(memory_keys):
    text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    assert memory_key_drift(text, memory_keys) == []


def test_the_memory_key_check_sees_a_dropped_and_an_invented_key(
    memory_keys,
):
    text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    (dropped,) = memory_key_drift(
        text.replace("`rollbacks`, ", ""), memory_keys
    )
    assert dropped.startswith("reported, not documented")
    assert "rollbacks" in dropped
    (invented,) = memory_key_drift(
        text.replace("keys:** `shards`, ", "keys:** `shards`, `pools`, "),
        memory_keys,
    )
    assert invented.startswith("documented, not reported")
    assert "pools" in invented


@pytest.fixture(scope="module")
def ftv_warm_keys():
    """The ``ftv_warm`` keys of a served ``ppi`` partition's report."""
    from repro.service import Service
    from repro.workload import generate_workload

    svc = Service(shards=2)
    svc.load_dataset("ppi", scale="tiny")
    graphs = svc.catalog.get("ppi").graphs
    svc.submit("ppi", generate_workload(graphs, 1, 4, seed=1)[0].graph)
    svc.run_until_idle()
    shard = svc.memory()["shards"][0]
    return sorted(shard["datasets"]["ppi"]["ftv_warm"])


def test_observability_doc_lists_the_ftv_warm_keys(ftv_warm_keys):
    text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    assert memory_key_drift(text, ftv_warm_keys, "ftv_warm") == []


def test_the_ftv_warm_key_check_sees_a_dropped_and_an_invented_key(
    ftv_warm_keys,
):
    text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    (dropped,) = memory_key_drift(
        text.replace("`labels`", "labels"), ftv_warm_keys, "ftv_warm"
    )
    assert dropped.startswith("reported, not documented")
    assert "labels" in dropped
    (invented,) = memory_key_drift(
        text.replace("`paths`", "`paths`, `tables`"),
        ftv_warm_keys, "ftv_warm",
    )
    assert invented.startswith("documented, not reported")
    assert "tables" in invented


# ----------------------------------------------------------------------
# every service module has its line in docs/ARCHITECTURE.md
# ----------------------------------------------------------------------

SERVICE = REPO / "src" / "repro" / "service"


def uncited_service_modules(text: str) -> list:
    """``src/repro/service/*.py`` modules ``text`` never cites."""
    cited = {
        path for path, _ in (
            (m.group(1).rstrip(".,;:)'"), m.group(2))
            for m in REF.finditer(text)
        )
    }
    return sorted(
        f"src/repro/service/{p.name}"
        for p in SERVICE.glob("*.py")
        if p.name != "__init__.py"
        and f"src/repro/service/{p.name}" not in cited
    )


def test_architecture_doc_cites_every_service_module():
    """A module split out of the service arrives with the line saying
    what it owns."""
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    assert uncited_service_modules(text) == []


def test_the_module_check_sees_an_uncited_module():
    text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
    assert uncited_service_modules(
        text.replace("src/repro/service/replicas.py", "src/repro/x.py")
    ) == ["src/repro/service/replicas.py"]


# ----------------------------------------------------------------------
# Markdown files the sources cite
# ----------------------------------------------------------------------

#: a Markdown file named in a source: ``docs/STORE.md``, ``README.md``
MD_CITE = re.compile(r"[\w./-]*\w\.md\b")
#: names the reach checker's own tests write into a synthetic tree
PLACEHOLDER_DOCS = {"API.md", "docs/API.md", "docs/NAME.md"}


def dangling_md_cites(text: str) -> list:
    """The ``*.md`` files ``text`` names that the repo does not have:
    a name with a directory is a path from the repo root, a bare name
    may be any Markdown file's."""
    present = {
        p.relative_to(REPO).as_posix()
        for p in REPO.rglob("*.md")
        if ".git" not in p.parts
    }
    names = {Path(p).name for p in present}
    return sorted({
        cite
        for cite in MD_CITE.findall(text)
        if cite not in PLACEHOLDER_DOCS
        and cite not in (present if "/" in cite else names)
    })


def test_sources_cite_only_markdown_files_the_repo_has():
    """A cite of a document that is gone, or never was, sends the
    reader nowhere."""
    dangling = [
        f"{path.relative_to(REPO)}: {cite}"
        for root in ("src", "benchmarks", "tests")
        for path in sorted((REPO / root).rglob("*.py"))
        for cite in dangling_md_cites(path.read_text())
    ]
    assert dangling == []


def test_the_markdown_check_sees_a_dangling_cite():
    md = ".md"  # spelled apart, or the check above would flag this file
    text = (
        f"see docs/STORE{md}, README{md} and STORE{md}, not "
        f"docs/GONE{md} or GONE{md} §2 or docs/README{md}"
    )
    assert dangling_md_cites(text) == [
        f"GONE{md}", f"docs/GONE{md}", f"docs/README{md}"
    ]


# ----------------------------------------------------------------------
# the paper figures docs/BENCHMARKS.md lists
# ----------------------------------------------------------------------

def listed_figures(text: str) -> list:
    """The names the "Paper figures and tables" table lists, in order."""
    section = text.partition("## Paper figures and tables")[2]
    return re.findall(
        r"^\| `(\w+)` \|", section.partition("\n## ")[0], re.MULTILINE
    )


def test_benchmarks_doc_lists_every_figure_name():
    """A figure added to (or dropped from) the registry arrives with
    (or takes away) its row."""
    from repro.harness.figures import FIGURES

    text = (REPO / "docs" / "BENCHMARKS.md").read_text()
    assert listed_figures(text) == list(FIGURES)
