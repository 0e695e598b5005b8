"""The reachability check's core, on a synthetic package.

``python -m tests._reach`` runs the committed traffic (minutes); this
drives the same :func:`tests._reach.check` over a few lines of code
written under ``tmp_path``, so what the check counts as reached, what
it reports and what it refuses is pinned in tier 1.
"""

import importlib
import itertools
import sys

import pytest

from ._reach import (
    AllowlistError,
    Recorder,
    _run_part,
    check,
    definitions,
    doc_section,
    heading_anchor,
    reached,
    read_allowlist,
)

PROBE = '''
import functools
import threading


def plain():
    return 1


def logged(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@logged
def decorated():
    return 2


def outer():
    def inner():
        return 3
    return inner()


def on_a_worker():
    return 4


def spawn():
    worker = threading.Thread(target=on_a_worker)
    worker.start()
    worker.join()


class Shape:
    def area(self):
        return 0

    def never(self):
        return 5


def forgotten():
    return 6


def documented():
    return 7
'''

_names = itertools.count()

API_DOC = (
    "# API\n\n`documented()` returns seven.\n\n"
    "## Other\n\nNothing to see here.\n"
)


@pytest.fixture
def probe(tmp_path, monkeypatch):
    """A fresh package holding :data:`PROBE` and a docs/ tree beside
    it; returns ``(package root, module name, traffic factory)``."""
    package = f"reachprobe{next(_names)}"
    root = tmp_path / package
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(PROBE)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "API.md").write_text(API_DOC)
    monkeypatch.syspath_prepend(str(tmp_path))
    module = f"{package}.mod"

    def traffic(status=0):
        # imported under the recorder, as the committed traffic is
        mod = importlib.import_module(module)

        def calls():
            mod.plain()
            mod.decorated()
            mod.outer()
            mod.spawn()
            mod.Shape().area()
            return status

        yield "probe calls", calls

    yield root, module, traffic
    for name in (module, package):
        sys.modules.pop(name, None)


def run(probe, allowlist, status=0):
    root, _, traffic = probe
    return check(root, traffic(status), allowlist, docs_root=root.parent)


def test_reached_decorated_nested_and_worker_thread_code(probe):
    _, mod, _ = probe
    report, problems = run(probe, (
        f"{mod}:Shape.never  abstract/dunder\n"
        f"{mod}:forgotten  safety\n"
        f"{mod}:documented  api  docs/API.md#api\n"
    ))
    assert problems == []
    # plain, logged, logged.wrapper, decorated, outer, outer.inner,
    # on_a_worker (a worker thread only), spawn, Shape.area: entered
    assert report[0].startswith("3 of 12 definitions")
    assert report[1] == (
        "allowlisted: cli 0, api 1, reference 0, safety 1, "
        "abstract/dunder 1, fuzz 0"
    )


def test_an_unlisted_unreached_definition_is_reported(probe):
    _, mod, _ = probe
    _, problems = run(probe, f"{mod}:Shape.never  abstract/dunder\n")
    assert problems == [
        f"unreached, not listed: {mod}:documented",
        f"unreached, not listed: {mod}:forgotten",
    ]


def test_a_stale_entry_fails(probe):
    _, mod, _ = probe
    _, problems = run(probe, (
        f"{mod}:Shape.never  abstract/dunder\n"
        f"{mod}:forgotten  safety\n"
        f"{mod}:documented  cli\n"
        f"{mod}:outer.inner  reference   # reached now\n"
        f"{mod}:renamed  cli\n"
    ))
    assert problems == [
        f"listed, but reached: {mod}:outer.inner  reference",
        f"listed, but not defined: {mod}:renamed  cli",
    ]


def test_a_traffic_part_that_exits_non_zero_fails(probe):
    _, mod, _ = probe
    _, problems = run(probe, (
        f"{mod}:Shape.never  abstract/dunder\n"
        f"{mod}:forgotten  safety\n"
        f"{mod}:documented  cli\n"
    ), status=2)
    assert problems == ["traffic 'probe calls' exited 2"]


@pytest.mark.parametrize("line, fragment", [
    ("{mod}:forgotten  unused", "unknown category 'unused'"),
    ("{mod}:forgotten", "want 'module:qualname  category'"),
    ("{mod}:documented  api", "only an api line, cites"),
    ("{mod}:forgotten  cli  docs/API.md#api", "only an api line, cites"),
    ("{mod}:documented  api  docs/API.md#other",
     "does not mention 'documented'"),
    ("{mod}:documented  api  docs/API.md#usage", "has no heading #usage"),
    ("{mod}:documented  api  docs/API.md:3", "is no docs/NAME.md#heading"),
    ("{mod}:documented  api  README.md#api", "is no docs/NAME.md#heading"),
    ("{mod}:forgotten  cli\n{mod}:forgotten  safety", "listed twice"),
])
def test_a_malformed_line_is_refused(probe, line, fragment):
    _, mod, _ = probe
    with pytest.raises(AllowlistError, match=fragment):
        run(probe, line.format(mod=mod) + "\n")


def test_comments_and_blank_lines_are_skipped():
    assert read_allowlist(
        "# why each stays\n\npkg.mod:f  cli   # only `repro f` calls it\n"
    ) == {"pkg.mod:f": "cli"}


def test_a_front_door_handler_is_cited_by_its_route(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "API.md").write_text(
        "## Routes\n\n`GET /health` answers while the service is up.\n"
    )
    assert read_allowlist(
        "pkg.mod:FrontDoor._serve_health  api  docs/API.md#routes\n",
        tmp_path,
    ) == {"pkg.mod:FrontDoor._serve_health": "api"}


def test_an_edit_above_a_cite_keeps_it(tmp_path):
    """A cite names a section, not a line: text added above the heading
    or inside the section before the mention leaves it good."""
    (tmp_path / "docs").mkdir()
    doc = tmp_path / "docs" / "API.md"
    line = "pkg.mod:Service.add_graph  api  docs/API.md#mutations--fencing"
    listed = {"pkg.mod:Service.add_graph": "api"}
    doc.write_text("## Mutations & fencing\n\n`Service.add_graph` adds.\n")
    assert read_allowlist(line, tmp_path) == listed
    doc.write_text(
        "# Guide\n\nA new paragraph.\n\n"
        "```sh\n# not a heading\n```\n\n"
        "## Mutations & fencing\n\nA new first line.\n\n"
        "### Details\n\n`Service.add_graph` adds.\n\n## Later\n"
    )
    assert read_allowlist(line, tmp_path) == listed


def test_a_section_ends_at_the_next_heading_of_its_level():
    doc = "# A\none\n## B\ntwo\n### C\nthree\n## D\nfour\n"
    assert doc_section(doc, "b") == "## B\ntwo\n### C\nthree"
    assert doc_section(doc, "d") == "## D\nfour"
    assert doc_section(doc, "a") == doc.rstrip("\n")
    assert doc_section(doc, "e") is None
    assert heading_anchor("Dynamic collections & mutation `fencing`") == (
        "dynamic-collections--mutation-fencing"
    )


SHAPES = '''
import contextlib
import functools


class Outer:
    class Inner:
        def method(self):
            return 1

    @staticmethod
    def static():
        return 2

    @classmethod
    def klass(cls):
        return 3

    @property
    def prop(self):
        return 4

    @prop.setter
    def prop(self, value):
        pass

    def method(self):
        def helper():
            return 5
        return helper()


@functools.lru_cache(
    maxsize=None,
)
def stacked():
    return 6


@contextlib.contextmanager
def managed():
    yield 7


def generator():
    yield 8


async def coroutine():
    return 9


if True:
    def conditional():
        return 10
'''


def _drive_coroutine(m):
    try:
        m.coroutine().send(None)
    except StopIteration:
        pass


@pytest.mark.parametrize("call, entered", [
    (lambda m: m.Outer.Inner().method(), ["Outer.Inner.method"]),
    (lambda m: m.Outer.static(), ["Outer.static"]),
    (lambda m: m.Outer.klass(), ["Outer.klass"]),
    (lambda m: m.Outer().prop, ["Outer.prop"]),
    (lambda m: setattr(m.Outer(), "prop", 1), ["Outer.prop"]),
    (lambda m: m.Outer().method(), ["Outer.method", "Outer.method.helper"]),
    (lambda m: m.stacked(), ["stacked"]),
    (lambda m: m.managed().__enter__(), ["managed"]),
    (lambda m: list(m.generator()), ["generator"]),
    (_drive_coroutine, ["coroutine"]),
    (lambda m: m.conditional(), ["conditional"]),
], ids=[
    "nested-class", "staticmethod", "classmethod", "property-getter",
    "property-setter", "nested-function", "multi-line-decorator",
    "contextmanager", "generator", "coroutine", "def-under-if",
])
def test_each_shape_of_definition_maps_to_its_qualname(
    tmp_path, monkeypatch, call, entered
):
    """What one call enters, by ``(file, first line, name)``: no other
    definition of the module counts as reached."""
    package = f"reachshapes{next(_names)}"
    root = tmp_path / package
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "shapes.py").write_text(SHAPES)
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = importlib.import_module(f"{package}.shapes")
        with Recorder() as recorder:
            call(module)
        assert reached(recorder.codes, definitions(root)) == {
            f"{package}.shapes:{name}" for name in entered
        }
    finally:
        for name in (f"{package}.shapes", package):
            sys.modules.pop(name, None)


def test_a_packages_init_is_named_after_the_package(tmp_path):
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "__init__.py").write_text("def top():\n    pass\n")
    (root / "sub" / "__init__.py").write_text("def low():\n    pass\n")
    assert sorted(definitions(root).values()) == ["pkg.sub:low", "pkg:top"]


def _exit(code):
    def part():
        sys.exit(code)
    return part


@pytest.mark.parametrize("part, status", [
    (lambda: None, 0),
    (lambda: 3, 3),
    (_exit(None), 0),
    (_exit(4), 4),
    (_exit("repro: no such dataset"), 1),
], ids=["returns-none", "returns-code", "exit-none", "exit-code",
        "exit-message"])
def test_a_traffic_parts_status(part, status):
    """A part's exit code, whether returned or raised as SystemExit —
    the way ``argparse`` and ``sys.exit(message)`` end a command."""
    assert _run_part(part) == status
