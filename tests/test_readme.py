"""The README's examples run as written and its command lines are the benchmark's."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first fenced block of the given language under a README section heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    match = re.search(rf"```{lang}\n(.*?)```", body, re.S)
    return match.group(1)


def test_quick_start_runs_and_its_comments_hold():
    ns, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Quick start", "python"), ns)
    report = ns["report"]
    assert round(report.lhs, 3) == 0.116
    assert round(report.bound, 3) == 0.156
    assert report.violated is True
    assert out.getvalue().splitlines()[-1] == "violated"


def test_command_lines_are_the_benchmarks():
    # bench/workloads.py copies the README's command lines verbatim into CLI_COMMANDS
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    commands = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CLI_COMMANDS"]
    )
    bench_lines = [entry.elts[1].value for entry in commands.elts]
    readme_lines = [line.split("#")[0].strip() for line in _block("Command line", "sh").splitlines()]
    assert len(bench_lines) == 8
    assert readme_lines == [f"modint {line}" for line in bench_lines]


def test_cited_names_exist():
    # every `module.name` the README cites names something in modint.<module>
    modules = {path.stem for path in (ROOT / "src" / "modint").glob("*.py")} - {"__init__"}
    cited = sorted(set(re.findall(r"`(\w+)\.(\w+)`", README)))
    cited = [(module, name) for module, name in cited if module in modules]
    assert cited
    missing = [f"{m}.{n}" for m, n in cited if not hasattr(importlib.import_module(f"modint.{m}"), n)]
    assert not missing
