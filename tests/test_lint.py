"""Tests for the telemetry lint (scripts/check_telemetry_lint.py)."""

import ast
import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_telemetry_lint.py"
_spec = importlib.util.spec_from_file_location("check_telemetry_lint", _SCRIPT)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _messages(source: str, name: str = "experiments/example.py"):
    path = lint.TARGET / name
    tree = ast.parse(source)
    return [msg for _, msg in lint._violations(path, tree, source.splitlines())]


class TestRawWriteRule:
    @pytest.mark.parametrize("method", ["write_text", "write_bytes"])
    def test_path_write_is_rejected(self, method):
        messages = _messages(f"Path('out.json').{method}(payload)\n")
        assert any(f"raw .{method}()" in m for m in messages)

    def test_marked_site_is_allowed(self):
        source = (
            "# lint-allow-raw-write: scratch file, never read back\n"
            "Path('out.json').write_text(payload)\n"
        )
        assert _messages(source) == []

    def test_atomic_writer_module_is_exempt(self):
        assert _messages("Path(tmp).write_bytes(data)\n", "atomicio.py") == []


class TestHotPathMarkers:
    """Rule 3 only checks functions carrying ``@hot_path``; losing the
    marker on the sweep's inner loop would silently switch it off."""

    @pytest.mark.parametrize("name", ["_run_group", "_replay_loss", "_run_chunk"])
    def test_sweep_inner_loop_is_marked(self, name):
        path = lint.TARGET / "core" / "sensitivity.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = {
            node.name: node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert lint._is_hot_path(funcs[name])
