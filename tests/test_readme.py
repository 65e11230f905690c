"""README.md names only flags and definitions that exist."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import wickjet
from wickjet import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = {path.stem for path in Path(wickjet.__file__).parent.glob("*.py")}

SPAN = re.compile(r"`([^`\n]+)`")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
# code that is a wickjet command line or a bare flag, not a pip command
COMMAND = re.compile(r"(\$ )?(wickjet |--)")
# a dotted name, optionally called: `cli.dense_terms(dim, trunc)`
REFERENCE = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")


def _code(text: str) -> list:
    """Inline code spans and fenced lines, in document order."""
    out, fenced = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            out.append(line)
        else:
            out += SPAN.findall(line)
    return out


def _resolves(reference: str) -> bool:
    """Whether a dotted reference names an object; names that are no module
    of wickjet, no export of wickjet and no importable module (a file name
    such as ``report.txt``) are not references and pass."""
    parts = reference.split(".")
    if parts[0] in SUBMODULES or hasattr(wickjet, parts[0]):
        parts = ["wickjet", *parts]
    elif importlib.util.find_spec(parts[0]) is None:
        return True
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def stale(text: str, flags: set) -> list:
    """Backticked wickjet flags the parser lacks, and dotted references that
    do not resolve."""
    out = []
    for code in _code(text):
        if COMMAND.match(code):
            out += [flag for flag in FLAG.findall(code) if flag not in flags]
        match = REFERENCE.fullmatch(code)
        if match and not _resolves(match.group(1)):
            out.append(match.group(1))
    return out


@pytest.fixture
def parser_flags(capsys) -> set:
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    return set(FLAG.findall(capsys.readouterr().out))


def test_readme_names_only_existing_flags_and_definitions(parser_flags):
    text = README.read_text(encoding="utf-8")
    assert stale(text, parser_flags) == []
    # the check has something to check
    assert {"--job", "--out"} <= {flag for code in _code(text)
                                  for flag in FLAG.findall(code)}
    assert sum(bool(REFERENCE.fullmatch(code)) for code in _code(text)) >= 10


def test_the_drift_check_flags_stale_names(parser_flags):
    text = ("Run `wickjet --job J --trunc-ceiling 20` or `--out DIR`.\n"
            "```\nwickjet --job J --seed 3\npip install --no-build-isolation\n```\n"
            "`integrals.toeplitz_apply`, `BTContext.flat`, `wickjet.nothing`, "
            "`cli.TRUNC_CEILING`, `suites.exact_truncation(2, 0)`, "
            "`fractions.Fraction`, `report.txt`\n")
    assert stale(text, parser_flags) == [
        "--trunc-ceiling", "--seed", "integrals.toeplitz_apply",
        "BTContext.flat", "wickjet.nothing"]
