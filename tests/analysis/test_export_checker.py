"""DEAD001 (__all__ drift): undefined exports, dead exports, exemptions.

The exportdrift fixture is checked with ``root`` pointed at the fixture
package itself (not the repo root): the engine skips ``tests/`` paths as
finding *sources*, and these fixtures deliberately live under tests/.
"""

from __future__ import annotations

from analysis_helpers import FIXTURES, line_of

from repro.analysis.engine import run_checks

DRIFT = FIXTURES / "exportdrift"


def _dead_findings():
    report = run_checks([str(DRIFT)], root=str(DRIFT))
    return [f for f in report.findings if f.rule == "DEAD001"]


def test_dead001_flags_undefined_and_unused_exports():
    found = _dead_findings()
    by_path = {}
    for f in found:
        by_path.setdefault(f.path, set()).add(f.line)
    assert by_path.get("mod.py") == {
        line_of(DRIFT / "mod.py", "SEEDED: undefined-export"),
        line_of(DRIFT / "mod.py", "SEEDED: unused-export"),
    }, [f"{f.path}:{f.line} {f.message}" for f in found]


def test_dead001_messages_distinguish_the_two_halves():
    messages = {f.message for f in _dead_findings()}
    assert any("'qoph_missing'" in m and "never defines" in m for m in messages)
    assert any("'QophUnused'" in m and "nothing else" in m for m in messages)


def test_dead001_facade_init_exempt_from_unused_but_not_undefined():
    found = _dead_findings()
    init_findings = [f for f in found if f.path == "__init__.py"]
    assert [f.line for f in init_findings] == [
        line_of(DRIFT / "__init__.py", "SEEDED: facade-undefined")]
    assert "'qoph_ghost'" in init_findings[0].message
    # QophUsed is re-exported by the facade and referenced nowhere outside
    # the package — exempt because facades exist for external consumers.
    assert not any("'QophUsed'" in f.message for f in found)


def test_dead001_pep562_getattr_exempts_undefined_half():
    assert not any(f.path == "dynamic.py" for f in _dead_findings())


def test_dead001_suppression_comment_is_honoured():
    assert not any("QophKept" in f.message for f in _dead_findings())
