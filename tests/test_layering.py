"""Where a mention is gets decided in one module, ``entities``, and a
sentence is normalized in one, ``rouge``.

These read the package source: only ``entities.py`` may define or name
the folded form and the boundary rule, and a ``Sentence`` carries no
folded text of its own.  Only ``segment.py``, which defines
``normalize_tokens``, ``rouge.py``, whose ``ClusterScorer`` calls it,
and ``__init__.py``, which re-exports it, may name it.  No module keeps
an import or a private module-level name that it never reads.  The
package's ``__all__`` is sorted and names exactly what ``__init__.py``
imports.  No module reads the environment, so every setting comes from
a flag or the config file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pyramid_masker
from pyramid_masker.segment import Sentence

PACKAGE = Path(pyramid_masker.__file__).parent
MENTION_RULE = {"fold_words", "contains_mention"}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text("utf-8"))


def _names(tree: ast.AST) -> set[str]:
    """Every name the code defines, imports, reads or writes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def test_only_entities_names_the_mention_rule():
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert "entities.py" in modules
    named = {name: _names(_tree(name)) & MENTION_RULE for name in modules}
    assert {name: found for name, found in named.items() if found} == {
        "entities.py": MENTION_RULE
    }


def test_only_the_scorer_normalizes_a_sentence():
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    naming = [name for name in modules if "normalize_tokens" in _names(_tree(name))]
    assert naming == ["__init__.py", "rouge.py", "segment.py"]


def test_no_module_reads_the_environment():
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert "cli.py" in modules
    named = {name: _names(_tree(name)) & ENVIRONMENT for name in modules}
    assert {name: found for name, found in named.items() if found} == {}


def test_sentence_has_no_folded_text():
    (sentence_class,) = [
        node for node in _tree("segment.py").body
        if isinstance(node, ast.ClassDef) and node.name == "Sentence"
    ]
    assert "folded" not in _names(sentence_class)
    assert not hasattr(Sentence("c", 0, 0, "Some Text."), "folded")
    for path in PACKAGE.glob("*.py"):
        reads = [
            node for node in ast.walk(_tree(path.name))
            if isinstance(node, ast.Attribute) and node.attr == "folded"
        ]
        assert reads == [], path.name


def _unread(tree: ast.Module) -> set[str]:
    """The imported names and module-level private names (``_x``) that
    ``tree`` never reads as a name."""
    kept = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            kept.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend(target.id for target in targets if isinstance(target, ast.Name))
    kept.update(name for name in defined if name.startswith("_"))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return kept - read


def test_no_module_keeps_an_unread_name():
    modules = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert "rouge.py" in modules
    assert {name: _unread(_tree(name)) for name in modules} == dict.fromkeys(modules, set())


def test_all_lists_exactly_what_init_imports():
    imported = [
        alias.asname or alias.name
        for node in _tree("__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert pyramid_masker.__all__ == sorted(pyramid_masker.__all__)
    assert sorted(imported) == pyramid_masker.__all__
