"""Every public definition in ``src/repro`` is reached by a user path.

The rule (docs/architecture.md, "What stays in src/"): a top-level
public function or class stays if its name is reached from

* ``src/`` itself (the CLI modes and the registered experiments live
  there);
* an example that CI runs;
* ``perfbench/``;
* ``benchmarks/check_counters.py``;
* ``.github/workflows/ci.yml``;
* ``docs/theory_map.md``, by name or by a bare module path such as
  ``geometry/voronoi.py`` (which keeps the whole module);
* or :data:`KEEP`, which names each test oracle and other exception
  with its reason.

"Reached" is a plain word search over those sources.  It skips the
definition itself, ``__all__`` lists and package re-export lines, so a
name that only its own module and ``__init__`` mention counts as
unreached.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CI = ROOT / ".github" / "workflows" / "ci.yml"
THEORY_MAP = ROOT / "docs" / "theory_map.md"
WORD = re.compile(r"\w+")

#: Definitions that no user path reaches and that stay, with the reason.
KEEP = {
    "check_ratio_bound": "paper-ratio check: Theorem 8 / Theorem 10 against "
    "gamma_c (tests/analysis/test_bounds_check.py)",
    "measure_ratio": "paper-ratio measurement: |CDS| / gamma_c for WAF and "
    "greedy (tests/analysis/test_ratios.py)",
    "has_two_hop_separation": "test oracle: Section III's 2-hop separation "
    "of the first-fit MIS, centralized and distributed",
    "min_pairwise_distance": "test oracle: spacing of the hexagonal-lattice "
    "witnesses",
    "point_in_polygon": "test oracle: convex-hull containment property",
    "is_nontrivial_star_decomposition": "test oracle: Lemma 4's star "
    "decomposition (tests and benchmarks/bench_star_decomposition.py)",
    "max_independent_subset_size": "test oracle: exact unit-disk packing "
    "capacity five",
    "cds_weight": "test oracle: weighted_greedy_cds's total_weight",
    "assert_valid_response": "test reader: raises on a serve response that "
    "fails the protocol schema",
    "arc_between": "geometry/arcs.py, the arc machinery of the theory map's "
    "arc-polygon row (tests/geometry/test_arcs.py)",
    "chord_length": "geometry/arcs.py, the arc machinery of the theory map's "
    "arc-polygon row (tests/geometry/test_arcs.py)",
    "luby_mis": "randomized MIS election that "
    "benchmarks/bench_ablation_mis_protocol.py sets against the rank "
    "cascade; the engine-equivalence suite runs it on both round engines",
}


def ci_examples() -> list[Path]:
    """The examples CI runs: ``examples/<name>.py`` paths and the names
    in its ``for example in ...; do`` loop."""
    text = CI.read_text()
    names = set(re.findall(r"examples/(\w+)\.py", text))
    for loop in re.findall(r"for example in (.*?); do", text, re.S):
        names.update(loop.replace("\\", " ").split())
    return [ROOT / "examples" / f"{name}.py" for name in sorted(names)]


@lru_cache(maxsize=None)
def scan() -> tuple[dict[str, list[str]], set[str]]:
    """``({name: [module::name, ...]}, unreached names)`` over the
    top-level public definitions in ``src/repro``."""
    counts: Counter[str] = Counter()
    keep_files = [
        *ci_examples(),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "benchmarks" / "check_counters.py",
        CI,
        THEORY_MAP,
    ]
    for path in keep_files:
        counts.update(WORD.findall(path.read_text()))
    whole_modules = set(re.findall(r"`([\w/]+\.py)`", THEORY_MAP.read_text()))

    defs: dict[str, list[str]] = {}
    own: Counter[str] = Counter()  # mentions inside the definitions themselves
    kept_by_module: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        lines = path.read_text().splitlines()
        skipped: set[int] = set()
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                skipped.update(range(node.lineno, node.end_lineno + 1))
            elif (
                path.name == "__init__.py"
                and isinstance(node, ast.ImportFrom)
                and node.level > 0
            ):
                skipped.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                defs.setdefault(node.name, []).append(f"{module}::{node.name}")
                body = "\n".join(lines[node.lineno - 1 : node.end_lineno])
                own[node.name] += WORD.findall(body).count(node.name)
                if module in whole_modules:
                    kept_by_module.add(node.name)
        for lineno, line in enumerate(lines, start=1):
            if lineno not in skipped:
                counts.update(WORD.findall(line))
    unreached = {
        name
        for name in defs
        if name not in kept_by_module and counts[name] - own[name] == 0
    }
    return defs, unreached


def test_every_public_definition_is_reached():
    defs, unreached = scan()
    orphans = sorted(
        location for name in unreached - KEEP.keys() for location in defs[name]
    )
    assert orphans == [], (
        "reached by no user path (delete them, or add them to KEEP with "
        "a reason): " + ", ".join(orphans)
    )


def test_keep_list_names_existing_definitions():
    defs, _ = scan()
    assert sorted(KEEP.keys() - defs.keys()) == []


def test_keep_list_names_only_unreached_definitions():
    _, unreached = scan()
    assert sorted(KEEP.keys() - unreached) == [], "reached anyway: drop from KEEP"


def test_keep_sources_exist():
    examples = ci_examples()
    assert examples, "no example found in the CI workflow"
    for path in examples:
        assert path.is_file(), path
