"""What ``latticepaths`` exports is what its own modules or the benchmark tracer use."""

import re
from pathlib import Path

import latticepaths

PACKAGE = Path(latticepaths.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# the writer whose output parse_model reads back
EXEMPT = {"format_model"}


def _uses(text, name):
    """Occurrences of name as a word, not counting the def or class line that defines it."""
    words = len(re.findall(rf"\b{name}\b", text))
    return words - len(re.findall(rf"^\s*(?:def|class)\s+{name}\b", text, re.M))


def test_no_export_is_test_only():
    init = PACKAGE / "__init__.py"
    # the package's table of exported names, one tuple per defining module
    exported = {name for names in latticepaths._EXPORTS.values() for name in names}
    assert "fit" in exported and "__version__" in latticepaths.__all__
    texts = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py")) if p != init]
    texts.append(TRACER.read_text(encoding="utf-8"))
    unused = sorted(name for name in exported - EXEMPT
                    if not any(_uses(text, name) for text in texts))
    assert unused == []
