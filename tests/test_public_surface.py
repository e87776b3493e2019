"""Every public name in ``src/repro`` has a reader outside ``tests/``.

A public name is a top-level function, class or assigned name of a module
under ``src/repro`` (not ``__all__``), or a public method or property of a
top-level class.  It has a reader when some ``.py`` file under ``src``,
``scripts``, ``perfbench`` or ``benchmarks``:

* loads it as a bare name (top-level names only),
* reads it as an attribute,
* passes it as a keyword argument (top-level names only), or
* holds it as an identifier-like string constant outside ``__init__.py``
  (``getattr`` tables, the string keys of dispatch maps).

Imports, ``__all__`` lists, the string maps of ``__init__.py`` and
references from inside the name's own ``def`` do not count.  ``_native.c``
is not scanned: it looks up no Python name.

A name no program reads is either deleted, moved into ``tests/`` or listed
in :data:`ALLOWLIST` with a one-line reason.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Directories whose ``.py`` files count as readers.
READER_DIRS = ("src", "scripts", "perfbench", "benchmarks")

#: qualname -> why it stays public with no reader outside ``tests/``.
ALLOWLIST = {
    "repro.analysis.pool.WorkerPool.worker_pids": (
        "the SIGKILL tests need the live worker pids to kill one mid-batch"
    ),
    "repro.analysis.pool.WorkerPool.started": (
        "the lazy-start and idle-reap test watches worker processes come and go"
    ),
    "repro.analysis.store.DirectoryStore.fingerprints": (
        "store tests list what a directory holds after torn and concurrent writes"
    ),
    "repro.serve.frontend.JobFrontEnd.abort": (
        "the persistence and resume tests simulate a crash: no drain, no spool compaction"
    ),
    "repro.workloads.synthetic.clear_shared_workloads": (
        "tests reset the process-wide program memo to compare fresh and memoized runs"
    ),
}


@dataclass(frozen=True)
class PublicName:
    qualname: str
    name: str
    path: Path
    line: int
    #: True for a method or property of a top-level class
    method: bool


def _module_name(src_root: Path, path: Path) -> str:
    parts = list(path.relative_to(src_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names(src_root: Path) -> list[PublicName]:
    """Collect the public names defined by the package under *src_root*."""
    found: list[PublicName] = []
    for path in sorted((src_root / "repro").rglob("*.py")):
        module = _module_name(src_root, path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _public(node.name):
                    found.append(
                        PublicName(f"{module}.{node.name}", node.name, path, node.lineno, False)
                    )
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(
                            item.name
                        ):
                            found.append(
                                PublicName(
                                    f"{module}.{node.name}.{item.name}",
                                    item.name,
                                    path,
                                    item.lineno,
                                    True,
                                )
                            )
                continue
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if _public(target.id):
                    found.append(
                        PublicName(f"{module}.{target.id}", target.id, path, node.lineno, False)
                    )
    return found


@dataclass
class Readers:
    """Every way the scanned files refer to a name, by the def it sits in.

    Each map goes from a bare name to the set of enclosing-def qualnames
    (``""`` at module level) that refer to it.
    """

    names: dict[str, set[str]]
    attributes: dict[str, set[str]]
    keywords: dict[str, set[str]]
    #: identifier-like string constants outside ``__init__.py``
    strings: dict[str, set[str]]


class _ReaderVisitor(ast.NodeVisitor):
    def __init__(self, readers: Readers, module: str, is_init: bool):
        self.readers = readers
        self.is_init = is_init
        self.scope = [module]
        self.depth = 0

    def _owner(self) -> str:
        return ".".join(self.scope) if self.depth else ""

    def _add(self, table: dict[str, set[str]], name: str) -> None:
        table.setdefault(name, set()).add(self._owner())

    def _visit_def(self, node) -> None:
        for child in (*node.decorator_list, *getattr(node, "bases", ())):
            self.visit(child)
        for child in getattr(node, "keywords", ()):
            self.visit(child)
        self.scope.append(node.name)
        self.depth += 1
        for child in node.body:
            self.visit(child)
        if not isinstance(node, ast.ClassDef):
            self.visit(node.args)
            if node.returns is not None:
                self.visit(node.returns)
        self.depth -= 1
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(self.readers.names, node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(self.readers.attributes, node.attr)
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg:
            self._add(self.readers.keywords, node.arg)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if not self.is_init and isinstance(node.value, str) and node.value.isidentifier():
            self._add(self.readers.strings, node.value)


def readers(root: Path) -> Readers:
    """Scan every ``.py`` under the reader directories of *root*."""
    found = Readers({}, {}, {}, {})
    for directory in READER_DIRS:
        base = root / directory
        for path in sorted(base.rglob("*.py")):
            if directory == "src":
                module = _module_name(base, path)
            else:
                module = ".".join(path.relative_to(root).with_suffix("").parts)
            tree = ast.parse(path.read_text(), filename=str(path))
            _ReaderVisitor(found, module, path.name == "__init__.py").visit(tree)
    return found


def _has_reader(name: PublicName, found: Readers) -> bool:
    if name.method:
        tables = (found.attributes, found.strings)
    else:
        tables = (found.names, found.attributes, found.keywords, found.strings)
    for table in tables:
        owners = table.get(name.name, ())
        if any(owner != name.qualname for owner in owners):
            return True
    return False


def unread_names(root: Path) -> list[PublicName]:
    """The public names under ``root/src/repro`` that no scanned file reads."""
    found = readers(root)
    return [name for name in public_names(root / "src") if not _has_reader(name, found)]


def stale_entries(root: Path, allowlist: dict[str, str]) -> dict[str, str]:
    """Allowlist entries that no longer name an unread public name, with why."""
    defined = {n.qualname for n in public_names(root / "src")}
    unread = {n.qualname for n in unread_names(root)}
    return {
        qualname: ("no longer defined" if qualname not in defined else "now has a reader")
        for qualname in allowlist
        if qualname not in unread
    }


def test_every_public_name_has_a_reader():
    unread = [n for n in unread_names(ROOT) if n.qualname not in ALLOWLIST]
    assert not unread, (
        "public names with no reader outside tests/ (delete them, move them into "
        "tests/, or allowlist them with a reason):\n"
        + "\n".join(f"{n.path.relative_to(ROOT)}:{n.line} {n.qualname}" for n in unread)
    )


def test_allowlist_is_current():
    stale = stale_entries(ROOT, ALLOWLIST)
    assert not stale, f"stale allowlist entries: {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_scanner_reports_planted_names(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        '__all__ = ["planted", "Thing"]\n_LAZY = {"planted": "mod"}\n'
    )
    (package / "mod.py").write_text(
        "def planted():\n"
        "    return planted()\n"
        "\n"
        "def used():\n"
        "    return Thing().kept()\n"
        "\n"
        "class Thing:\n"
        "    def kept(self):\n"
        "        return 1\n"
        "\n"
        "    def planted_method(self):\n"
        "        return self.planted_method()\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("from repro.mod import used\nused()\n")
    unread = {n.qualname for n in unread_names(tmp_path)}
    assert unread == {"repro.mod.planted", "repro.mod.Thing.planted_method"}
    allowlist = {
        "repro.mod.planted": "still unread",
        "repro.mod.Thing.kept": "read by repro.mod.used",
        "repro.mod.gone": "deleted",
    }
    assert stale_entries(tmp_path, allowlist) == {
        "repro.mod.Thing.kept": "now has a reader",
        "repro.mod.gone": "no longer defined",
    }
