"""TCB accounting (repro.tcb): the paper's headline size claims hold
for this repository's consumer, and the counted files are exactly the
measured ones."""

import ast
from pathlib import Path

from repro.core.bootstrap import consumer_image
from repro.tcb import (
    CONSUMER_ROWS, consumer_files, consumer_inventory, count_loc,
    verifier_core_loc,
)

_SRC = Path(__file__).parent.parent / "src" / "repro"


def test_count_loc_ignores_comments_and_docstrings(tmp_path):
    f = tmp_path / "m.py"
    f.write_text('"""module docstring\nspanning lines\n"""\n'
                 "# comment\n\n"
                 "x = 1\n"
                 "def f():\n"
                 '    """doc"""\n'
                 "    return x  # trailing comment counts as code\n")
    assert count_loc([f]) == 3   # x=1, def f, return


def test_inventory_structure():
    inventory = consumer_inventory()
    assert set(inventory) == {
        "Loader/Verifier", "Checkpoint/cache/audit", "RA/Encryption",
        "Disassembler base", "Shim libc", "Other dependencies"}
    for component in inventory.values():
        assert component.loc > 0
        assert component.kloc == component.loc / 1000.0
        for rel in component.files:
            assert (Path(__file__).parent.parent / "src" / "repro" /
                    rel).exists()


def test_paper_scale_claims_hold():
    core = verifier_core_loc()
    assert 0 < core["loader"] < 600       # paper: loader < 600 LoC
    assert 0 < core["verifier"] < 700     # paper: verifier < 700 LoC
    inventory = consumer_inventory()
    assert inventory["Loader/Verifier"].loc < 2000  # "about 2000 lines"


def _consumer_closure():
    """Files of repro.core / repro.policy reachable from
    core/bootstrap.py through relative imports (any nesting depth,
    function-level imports included)."""
    seen, todo = set(), ["core/bootstrap.py"]
    while todo:
        rel = todo.pop()
        if rel in seen:
            continue
        seen.add(rel)
        package = Path(rel).parent
        for node in ast.walk(ast.parse((_SRC / rel).read_text())):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            base = package
            for _ in range(node.level - 1):
                base = base.parent
            names = ([node.module] if node.module
                     else [alias.name for alias in node.names])
            for name in names:
                target = base.joinpath(*name.split("."))
                if target.parts[0] not in ("core", "policy"):
                    continue
                if (_SRC / target).with_suffix(".py").exists():
                    todo.append(f"{target.as_posix()}.py")
    return seen


def test_counted_files_are_the_bootstrap_import_closure():
    counted = [rel for rows in CONSUMER_ROWS.values() for rel in rows]
    assert len(counted) == len(set(counted)) == 15
    assert set(counted) == _consumer_closure()
    inventory = consumer_inventory()
    for name, rows in CONSUMER_ROWS.items():
        assert inventory[name].files == rows


def test_measured_image_is_exactly_the_counted_files():
    image = consumer_image()
    assert image == b"\x00".join(
        f"{path.parent.name}/{path.name}".encode() + b"\x00" +
        path.read_bytes() for path in consumer_files())
    for outsider in (b"LegacyPolicyVerifier", b"def match_pattern",
                     b"class ProvenanceChain", b"def emit_pattern"):
        assert outsider not in image
