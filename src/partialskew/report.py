"""Check results and report serialization shared by the library and the CLI.

The structured form is canonical: keys sorted, checks sorted by name,
timings stripped.  Two runs on the same scenario therefore serialize to
byte-identical output, and parsing the structured form back yields an equal
Report value.  It is written in one pass by ``_write_json``, whose output is
byte for byte that of ``json.dumps(payload, sort_keys=True, indent=2)``;
the keys of a report's dicts must be ``str``.
"""

from __future__ import annotations

import json

from .errors import ParseError

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class CheckResult:
    """One named check: its status, measured values and failure witnesses.

    ``seconds`` is a text-only timing: equality ignores it, so two runs of
    one scenario give equal results.  Mutable, hence unhashable."""

    __slots__ = ("name", "status", "measured", "witnesses", "seconds")

    def __init__(self, name, status, measured=None, witnesses=None, seconds=None):
        self.name = name
        self.status = status
        self.measured = {} if measured is None else measured
        self.witnesses = [] if witnesses is None else witnesses
        self.seconds = seconds

    def _key(self):
        return self.name, self.status, self.measured, self.witnesses

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        return (f"CheckResult(name={self.name!r}, status={self.status!r}, "
                f"measured={self.measured!r}, witnesses={self.witnesses!r}, "
                f"seconds={self.seconds!r})")

    def ok(self):
        return self.status != FAIL


def check(name, measured=None, *witnesses):
    """The check ``name``, failed exactly when it names a witness: the
    ``None`` witnesses are dropped, and any other one fails it (an empty
    message too).  A call that passes no witness restates a proof and
    cannot fail."""
    kept = [w for w in witnesses if w is not None]
    return CheckResult(name, FAIL if kept else PASS, measured, kept)


class Report:
    """The checks of one scenario run.  Mutable, hence unhashable."""

    __slots__ = ("scenario", "checks")

    def __init__(self, scenario, checks):
        self.scenario = scenario
        self.checks = checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.scenario, self.checks) == (other.scenario, other.checks)

    __hash__ = None

    def __repr__(self):
        return f"Report(scenario={self.scenario!r}, checks={self.checks!r})"

    def passed(self):
        return all(c.ok() for c in self.checks)

    def extend(self, results):
        self.checks.extend(results)

    def named(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def sorted_checks(self):
        return sorted(self.checks, key=lambda c: c.name)

    def canonical(self):
        return Report(self.scenario, self.sorted_checks())


_encode_str = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


def _write_json(out, value, indent):
    """Append the pieces of ``json.dumps(value, sort_keys=True, indent=2)``
    to the list ``out``, ``indent`` being the current line's indentation.

    Strings go through the encoder ``json.dumps`` uses, an ``int`` through
    ``int.__repr__``; any other leaf (a float, a subclass of str or int) is
    handed to ``json.dumps``.  Dict keys must be ``str``."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool or value is None:
        out.append(_LITERALS[value])
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(out, item, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in sorted(value.items()):
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(out, item, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        out.append(json.dumps(value))


def _measured_str(measured):
    return " ".join(f"{k}={measured[k]}" for k in sorted(measured))


def emit_report(report, fmt="text"):
    """Render a report; fmt is 'text' (table) or 'structured' (canonical JSON)."""
    if fmt == "structured":
        payload = {
            "scenario": report.scenario,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "measured": c.measured,
                    "witnesses": list(c.witnesses),
                }
                for c in report.sorted_checks()
            ],
        }
        out = []
        _write_json(out, payload, "")
        out.append("\n")
        return "".join(out)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    checks = report.sorted_checks()
    name_w = max([len(c.name) for c in checks] + [len("check")])
    lines = [f"scenario: {report.scenario}",
             f"{'check'.ljust(name_w)}  {'status'.ljust(6)}  details"]
    lines.append("-" * len(lines[-1]))
    for c in checks:
        detail = _measured_str(c.measured)
        if c.seconds is not None:
            detail = (detail + f"  [{c.seconds:.3f}s]").strip()
        lines.append(f"{c.name.ljust(name_w)}  {c.status.ljust(6)}  {detail}".rstrip())
        for w in c.witnesses:
            lines.append(f"{''.ljust(name_w)}  {' ' * 6}  ! {w}")
    verdict = "PASS" if report.passed() else "FAIL"
    passed, skipped = (sum(c.status == status for c in checks) for status in (PASS, SKIPPED))
    tail = f", {skipped} skipped" if skipped else ""
    lines.append(f"result: {verdict} ({passed}/{len(checks)} checks passed{tail})")
    return "\n".join(lines) + "\n"


def parse_structured(text):
    """Inverse of emit_report(..., 'structured')."""
    try:
        payload = json.loads(text)
        checks = [CheckResult(c["name"], c["status"], dict(c["measured"]),
                              list(c["witnesses"]))
                  for c in payload["checks"]]
        return Report(payload["scenario"], checks)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad structured report: {exc}") from None
