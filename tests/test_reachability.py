"""Every definition in ``src/repro`` is reached by a user path.

The rule (docs/architecture.md, "What stays in src/"): a top-level
function or class, public or private, a public module-level constant,
and a public method, property or class-level constant of a top-level
class, stays if its name is reached from

* code in ``src/`` itself (the CLI modes and the registered experiments
  live there);
* an example that CI runs;
* ``perfbench/``;
* ``benchmarks/check_counters.py``;
* ``.github/workflows/ci.yml``;
* ``docs/theory_map.md``, by name, by a bare module path such as
  ``geometry/voronoi.py`` (which keeps the whole module), or by a
  ``module.py::Class`` entry (which keeps that class's members);
* or :data:`KEEP`, which names each test oracle, test harness and
  theory-map helper with its reason.  A class listed there keeps its
  members.

Inside ``src/`` only code counts: a ``Name`` that is read, an
``Attribute``'s attribute name or a keyword-argument name.  Docstrings,
comments, ``__all__`` lists, import lines (so package re-exports) and
string keys such as ``repro.obs._LAZY``'s never count.  The other
sources are searched word by word, because perfbench patches
attributes by their string names.

The scan runs to a fixpoint.  It starts from the code outside every
definition (module-level statements, private module constants and
top-level dunders such as ``repro.obs.__getattr__``, which Python calls
by protocol), the word-searched sources and the kept definitions; each
definition that a live name reaches adds its own references, until
nothing changes.  So a name that only unreached code mentions is
unreached too, even when the unreached code is a private helper, and a
member is reached only once its class is.

What the guard cannot see:

* references are matched by name, not by type, so a member with a
  generic name such as ``add`` or ``nodes`` is reached by any attribute
  of that name anywhere in ``src/``;
* a lookup by a string built at run time, such as ``getattr`` with a
  computed name, reaches nothing, and neither does a decorator that
  registers a function under another key: such a target needs another
  reference or a :data:`KEEP` entry.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CI = ROOT / ".github" / "workflows" / "ci.yml"
THEORY_MAP = ROOT / "docs" / "theory_map.md"
WORD = re.compile(r"\w+")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Definitions that no user path reaches and that stay, with the reason
#: and the reader.
KEEP = {
    "check_ratio_bound": "paper-ratio check: Theorem 8 / Theorem 10 against "
    "gamma_c (tests/analysis/test_bounds_check.py)",
    "measure_ratio": "paper-ratio measurement: |CDS| / gamma_c for WAF and "
    "greedy (tests/analysis/test_ratios.py)",
    "has_two_hop_separation": "test oracle: Section III's 2-hop separation "
    "of the first-fit MIS, centralized and distributed "
    "(tests/mis/test_first_fit.py, tests/distributed/test_mis_protocol.py)",
    "min_pairwise_distance": "test oracle: spacing of the hexagonal-lattice "
    "witnesses (tests/geometry/test_hexagonal.py)",
    "point_in_polygon": "test oracle: convex-hull containment property "
    "(tests/properties/test_property_geometry.py)",
    "is_nontrivial_star_decomposition": "test oracle: Lemma 4's star "
    "decomposition (tests and benchmarks/bench_star_decomposition.py)",
    "max_independent_subset_size": "test oracle: exact unit-disk packing "
    "capacity five (tests/geometry/test_packing.py)",
    "arc_between": "geometry/arcs.py, the arc machinery of the theory map's "
    "arc-polygon row (tests/geometry/test_arcs.py)",
    "chord_length": "geometry/arcs.py, the arc machinery of the theory map's "
    "arc-polygon row (tests/geometry/test_arcs.py)",
    "luby_mis": "randomized MIS election that "
    "benchmarks/bench_ablation_mis_protocol.py sets against the rank "
    "cascade; the engine-equivalence suite runs it on both round engines",
    "ServerThread": "test harness: the serve suites' in-process daemon "
    "(tests/serve/test_server.py, tests/serve/test_loadgen.py)",
}


@dataclass(eq=False)
class Definition:
    location: str  # "module.py::qualname"
    qualname: str  # "name" or "Class.member"
    parent: Definition | None  # the class of a member
    refs: Counter[str]  # the names its own code reads

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]


def code_refs(node: ast.AST) -> Counter[str]:
    """The names the code under ``node`` reads."""
    refs: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.keyword) and sub.arg is not None:
            refs[sub.arg] += 1
    return refs


def constant_names(node: ast.stmt, fields: bool = False) -> list[str]:
    """The public names an assignment with a value binds.  In a
    dataclass or named tuple (``fields``) an annotated name is a field,
    not a constant."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None and not fields:
        targets = [node.target]
    else:
        return []
    return [
        t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")
    ]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def module_definitions(
    module: str, tree: ast.Module
) -> tuple[list[Definition], Counter[str]]:
    """The definitions of one module and the references made outside
    all of them."""
    found: list[Definition] = []
    outside: Counter[str] = Counter()

    def define(qualname: str, refs: Counter[str], parent=None) -> Definition:
        found.append(Definition(f"{module}::{qualname}", qualname, parent, refs))
        return found[-1]

    for node in tree.body:
        if isinstance(node, DEFS) and not is_dunder(node.name):
            if not isinstance(node, ast.ClassDef):
                define(node.name, code_refs(node))
                continue
            heads = (*node.decorator_list, *node.bases, *node.keywords)
            cls = define(node.name, sum(map(code_refs, heads), Counter()))
            fields = bool({"dataclass", "NamedTuple", "TypedDict"} & cls.refs.keys())
            for item in node.body:
                if isinstance(item, DEFS):
                    names = [] if item.name.startswith("_") else [item.name]
                else:
                    names = constant_names(item, fields)
                for name in names:
                    define(f"{node.name}.{name}", code_refs(item), cls)
                if not names:
                    cls.refs += code_refs(item)
        elif names := constant_names(node):
            for name in names:
                define(name, code_refs(node))
        else:
            outside += code_refs(node)
    return found, outside


def scan(
    src: Path, words: list[Path], theory_map: Path, keep: set[str]
) -> tuple[dict[str, str], set[str], set[str]]:
    """``({location: qualname}, unreached locations, kept locations)``
    over the definitions of the modules under ``src``.

    ``words`` are searched word by word.  ``theory_map``'s bare module
    paths keep whole modules and its ``module.py::name`` entries keep
    those definitions; ``keep`` names kept definitions by qualname.  A
    kept class keeps its members, and kept code is a root of the scan.
    """
    live: Counter[str] = Counter()
    for path in words:
        live.update(WORD.findall(path.read_text()))
    map_text = theory_map.read_text()
    whole_modules = set(re.findall(r"`([\w/]+\.py)`", map_text))
    map_entries = set(re.findall(r"`([\w/]+\.py::[\w.]+)`", map_text))

    defs: list[Definition] = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        found, outside = module_definitions(module, ast.parse(path.read_text()))
        defs += found
        live += outside

    def is_kept(d: Definition) -> bool:
        return (
            d.location.partition("::")[0] in whole_modules
            or d.location in map_entries
            or d.qualname in keep
            or (d.parent is not None and is_kept(d.parent))
        )

    kept = {d for d in defs if is_kept(d)}
    for d in kept:
        live += d.refs
    reached: set[Definition] = set()
    while new := [
        d
        for d in defs
        if d not in reached
        and live[d.name]
        and (d.parent is None or d.parent in reached)
    ]:
        reached.update(new)
        for d in new:
            if d not in kept:
                live += d.refs
    return (
        {d.location: d.qualname for d in defs},
        {d.location for d in defs if d not in reached},
        {d.location for d in kept},
    )


def ci_examples() -> list[Path]:
    """The examples CI runs: ``examples/<name>.py`` paths and the names
    in its ``for example in ...; do`` loop."""
    text = CI.read_text()
    names = set(re.findall(r"examples/(\w+)\.py", text))
    for loop in re.findall(r"for example in (.*?); do", text, re.S):
        names.update(loop.replace("\\", " ").split())
    return [ROOT / "examples" / f"{name}.py" for name in sorted(names)]


@lru_cache(maxsize=None)
def repo_scan() -> tuple[dict[str, str], set[str], set[str]]:
    words = [
        *ci_examples(),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "benchmarks" / "check_counters.py",
        CI,
        THEORY_MAP,
    ]
    return scan(SRC, words, THEORY_MAP, set(KEEP))


def test_every_public_definition_is_reached():
    _, unreached, kept = repo_scan()
    orphans = sorted(unreached - kept)
    assert orphans == [], (
        "reached by no user path (delete them, or add them to KEEP with "
        "a reason): " + ", ".join(orphans)
    )


def test_keep_list_names_existing_definitions():
    defs, _, _ = repo_scan()
    assert sorted(KEEP.keys() - set(defs.values())) == []


def test_keep_list_names_only_unreached_definitions():
    defs, unreached, _ = repo_scan()
    reached = {defs[location] for location in defs.keys() - unreached}
    assert sorted(KEEP.keys() & reached) == [], "reached anyway: drop from KEEP"


def test_keep_sources_exist():
    examples = ci_examples()
    assert examples, "no example found in the CI workflow"
    for path in examples:
        assert path.is_file(), path


def test_scan_counts_code_not_prose(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text(
        "from .mod import doc_only, lazy_only\n"
        '__all__ = ["doc_only", "lazy_only"]\n'
        '_LAZY = {"lazy_only": "mod"}\n'
        "def __getattr__(name):\n"
        "    return protocol_callee()\n"
    )
    (src / "mod.py").write_text(
        '"""Calls doc_only() in prose only."""\n'
        "def used():\n"
        "    return helper() + Worker().run() + _live_helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def _live_helper():\n"
        "    return live_callee()\n"
        "def live_callee():\n"
        "    return 2\n"
        "def protocol_callee():\n"
        "    pass\n"
        "def dead_entry():\n"
        "    return _dead_helper()\n"
        "def _dead_helper():\n"
        "    return helper_only()\n"
        "def helper_only():\n"
        "    pass\n"
        "def doc_only():\n"
        '    """doc_only stays in its docstring."""\n'
        "def comment_only():  # comment_only()\n"
        "    pass\n"
        "def lazy_only():\n"
        "    pass\n"
        "def patched():\n"
        "    pass\n"
        "def dead():\n"
        "    return dead_callee()\n"
        "def dead_callee():\n"
        "    pass\n"
        "class Worker:\n"
        "    LIMIT = 3\n"
        "    def run(self):\n"
        "        return 0\n"
        "    def orphan(self):\n"
        "        return self.inner()\n"
        "    def inner(self):\n"
        "        return self.LIMIT\n"
        "class Mapped:\n"
        "    def member(self):\n"
        "        pass\n"
        "if __name__ == '__main__':\n"
        "    used()\n"
    )
    perfbench = tmp_path / "perfbench" / "wl.py"
    perfbench.parent.mkdir()
    perfbench.write_text('PATCHES = [("pkg.mod", "patched")]\n')
    theory_map = tmp_path / "theory_map.md"
    theory_map.write_text("| a row | `mod.py::Mapped` |\n")

    defs, unreached, kept = scan(src, [perfbench, theory_map], theory_map, set())
    loc = {qualname: location for location, qualname in defs.items()}
    named = {defs[location] for location in unreached - kept}
    # (a) prose does not reach: a word search over the module would.
    assert {"doc_only", "comment_only"} <= named
    assert WORD.findall((src / "mod.py").read_text()).count("doc_only") > 1
    # (b) reached only from unreached code is unreached, to a fixpoint.
    assert {"dead", "dead_callee", "Worker.orphan", "Worker.inner"} <= named
    assert "Worker.LIMIT" in named
    # (c) __all__, re-export lines and _LAZY keys are no references.
    assert "lazy_only" in named
    # (d) a module.py::Class entry keeps the class's members.
    assert loc["Mapped.member"] in kept and loc["Mapped.member"] in unreached
    # (e) a word in a perfbench file still counts.
    assert loc["patched"] not in unreached
    # (f) a private helper is a definition: reached only from dead code,
    # it is reported, and so is what only it names.
    assert {"dead_entry", "_dead_helper", "helper_only"} <= named
    # (g) a private helper that live code calls keeps its callee reached.
    assert loc["_live_helper"] not in unreached
    assert loc["live_callee"] not in unreached
    # (h) a module-level dunder is no definition but a root.
    assert "__getattr__" not in defs.values()
    assert loc["protocol_callee"] not in unreached
    assert named == {
        "doc_only",
        "comment_only",
        "lazy_only",
        "dead",
        "dead_callee",
        "dead_entry",
        "_dead_helper",
        "helper_only",
        "Worker.LIMIT",
        "Worker.orphan",
        "Worker.inner",
    }
    # A kept definition is a root: what it calls is reached.
    _, unreached, _ = scan(src, [perfbench, theory_map], theory_map, {"dead"})
    assert loc["dead_callee"] not in unreached
