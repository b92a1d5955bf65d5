"""Compare this checkout with a git revision: artifact bytes and ``src/`` size.

    python tools/compare.py REF

Exports REF with ``git archive`` into a temporary directory (nothing is
written in the repository or its ``.git``), runs each tree's own
``tools/artifacts.py`` with ``OPENBLAS_NUM_THREADS=1``, and compares the
two artifact trees file by file. It prints every relative path that
differs, or is missing from one tree, then one "differs under:" line with
the count of those paths under each top-level directory (for example
"differs under: variant-s0 7, variant-s1 7"), or else "N files
byte-equal"; then the ``src/`` total and code lines of both trees and their deltas. Code
lines are the lines that are not blank, not comments and not docstrings.
The checkout side is the working tree as it stands, edits included.
Exits 1 if any artifact differs, 0 otherwise; the temporary directories
are removed either way.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def artifacts(tree: Path, out: Path) -> dict[str, bytes]:
    """Run ``tree``'s own artifact writer into ``out``; each file's bytes by relative path."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)  # the writer imports its own tree's src/
    subprocess.run([sys.executable, str(tree / "tools" / "artifacts.py"), str(out)],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def code_lines(source: str) -> int:
    """Lines holding a token that is not a comment and not part of a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def src_size(tree: Path) -> tuple[int, int]:
    """Total and code lines of every ``.py`` file under ``tree/src``."""
    sources = [p.read_text(encoding="utf-8") for p in sorted((tree / "src").rglob("*.py"))]
    return sum(len(s.splitlines()) for s in sources), sum(map(code_lines, sources))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory(prefix="moce-compare-") as tmp:
        ref_tree = Path(tmp, "ref")
        export(argv[0], ref_tree)
        ref_files = artifacts(ref_tree, Path(tmp, "ref-out"))
        files = artifacts(ROOT, Path(tmp, "out"))
        sizes = [src_size(ref_tree), src_size(ROOT)]
    differ = sorted(path for path in ref_files.keys() | files.keys()
                    if ref_files.get(path) != files.get(path))
    for path in differ:
        print(f"differs: {path}")
    if differ:
        under = Counter(Path(path).parts[0] for path in differ)
        print("differs under: " + ", ".join(f"{top} {n}" for top, n in sorted(under.items())))
    else:
        print(f"{len(files)} files byte-equal")
    for label, (ref, new) in zip(("total", "code"), zip(*sizes)):
        print(f"src/ {label} lines: {argv[0]} {ref}, this checkout {new}, delta {new - ref:+d}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
