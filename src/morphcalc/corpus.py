"""Identity corpus: a line-oriented file of named equalities to verify mechanically.

Format, one record per line, fields separated by " ; ":

    name ; lhs-expression ; == or != ; rhs-expression ; citation

Lines starting with '#' and blank lines are skipped.  Records may expect the
two sides to be unequal; those guard against identifications the calculus
forbids.  The verifier never aborts on a bad record: evaluation errors are
reported as failures with diagnostics.  `sphere_addition` and `hopf_family`
build records of this format.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .quantity import MorphError, MorphPoly, P, R, UsageError, render
from .lang import Expr, eval_expr, parse
from .catalog import BadParams, poincare_sphere, projective, sphere


class FormatError(UsageError):
    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateName(UsageError):
    pass


class IdentityRecord(NamedTuple):
    name: str
    lhs: Expr
    rhs: Expr
    expect: str  # "equal" | "unequal"
    citation: str
    lhs_source: str
    rhs_source: str


class RecordOutcome(NamedTuple):  # the field order is the --json key order
    name: str
    expect: str
    outcome: str  # "pass" | "fail"
    lhs: str
    rhs: str
    difference: str = None
    error: str = None


class VerifyReport(NamedTuple):
    outcomes: tuple

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome == "fail")

    @property
    def exit_status(self) -> int:
        return 0 if self.failed == 0 else 1

    def to_text(self) -> str:
        lines = []
        width = max((len(o.name) for o in self.outcomes), default=0)
        for o in self.outcomes:
            mark = "ok  " if o.outcome == "pass" else "FAIL"
            line = f"{mark} {o.name.ljust(width)}"
            if o.outcome == "fail":
                if o.error is not None:
                    line += f"  error: {o.error}"
                else:
                    line += f"  lhs = {o.lhs}  rhs = {o.rhs}"
                    if o.difference is not None:
                        line += f"  difference = {o.difference}"
            lines.append(line)
        lines.append(f"passed {self.passed}  failed {self.failed}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        records = [{k: v for k, v in o._asdict().items() if v is not None} for o in self.outcomes]
        return {
            "summary": {"pass": self.passed, "fail": self.failed},
            "records": records,
        }

    def to_json(self) -> str:
        import json  # only a --json report pays for it

        return json.dumps(self.to_json_dict(), indent=2)


def _as_text(source) -> str:
    if isinstance(source, (bytes, str)):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
    else:
        data = source.read_bytes()  # pathlib.Path
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # number lines as load_corpus does; "?" stands in for the bad byte
            line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
            raise FormatError(f"not valid UTF-8 (byte {data[exc.start]:#04x})", line_no) from None
    return data.removeprefix("\ufeff")  # a byte-order mark is no part of the first line


def load_corpus(source) -> list:
    """Parse a corpus file into identity records; names must be unique."""
    text = _as_text(source)
    records = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(" ; ")]
        if len(fields) != 5:
            raise FormatError(f"expected 5 ' ; '-separated fields, found {len(fields)}", line_no)
        name, lhs_src, rel, rhs_src, citation = fields
        if rel not in ("==", "!="):
            raise FormatError(f"relation must be '==' or '!=', found {rel!r}", line_no)
        if name in seen:
            raise DuplicateName(f"duplicate record name {name!r} (line {line_no})")
        seen.add(name)
        try:
            lhs = parse(lhs_src)
            rhs = parse(rhs_src)
        except MorphError as exc:
            raise FormatError(str(exc), line_no) from exc
        records.append(
            IdentityRecord(
                name=name,
                lhs=lhs,
                rhs=rhs,
                expect="equal" if rel == "==" else "unequal",
                citation=citation,
                lhs_source=lhs_src,
                rhs_source=rhs_src,
            )
        )
    return records


def verify_record(record: IdentityRecord) -> RecordOutcome:
    try:
        lhs = eval_expr(record.lhs)
        rhs = eval_expr(record.rhs)
        equal = lhs == rhs
        ok = equal if record.expect == "equal" else not equal
        diff = render(lhs - rhs, "r") if not ok and record.expect == "equal" else None
        lhs_text = render(lhs, "r")
        return RecordOutcome(
            name=record.name,
            expect=record.expect,
            outcome="pass" if ok else "fail",
            lhs=lhs_text,
            rhs=lhs_text if equal else render(rhs, "r"),  # equal sides render alike
            difference=diff,
        )
    except MorphError as exc:  # evaluating or rendering, e.g. over the digit limit
        return RecordOutcome(
            name=record.name,
            expect=record.expect,
            outcome="fail",
            lhs=record.lhs_source,
            rhs=record.rhs_source,
            error=str(exc),
        )


def verify_corpus(records) -> VerifyReport:
    return VerifyReport(outcomes=tuple(verify_record(r) for r in records))


# -- identity families ----------------------------------------------------


def _identity(name: str, lhs: str, rhs: str, citation: str):
    """The corpus record `name ; lhs ; == ; rhs ; citation`."""
    (record,) = load_corpus(f"{name} ; {lhs} ; == ; {rhs} ; {citation}")
    return record


def sphere_addition(p: int, q: int, r: int = None):
    """The sphere addition identity for a (p, q[, r]) block split, as a corpus record.

    S(p + q + .. - 1) is the sum over the non-empty subsets of the blocks, each
    a product of S(b - 1) over its blocks b times Rp^(size - 1).
    """
    blocks = (p, q) if r is None else (p, q, r)
    if min(blocks) < 1:
        raise BadParams("sphere_addition needs positive block sizes")
    terms = []
    for k in range(len(blocks), 0, -1):
        rp = "" if k == 1 else "*Rp" if k == 2 else f"*Rp^{k - 1}"
        terms += ["*".join(f"S({b - 1})" for b in subset) + rp
                  for subset in combinations(blocks, k)]
    name = "sphere-addition-" + "-".join(map(str, blocks))
    return _identity(name, f"S({sum(blocks) - 1})", " + ".join(terms), "sphere addition")


def hopf_family(s: int, k: int):
    """The repeated-suspension factorization S((s+1)k - 1) = (R^(sk) + .. + R^k + 1)*S(k-1)."""
    if s < 1 or k < 1:
        raise BadParams("hopf_family needs s >= 1 and k >= 1")
    lhs = f"S({(s + 1) * k - 1})"
    rhs = f"({render(projective(s, k), 'r')})*S({k - 1})"
    return _identity(f"hopf-{s}-{k}", lhs, rhs, "hopf factorization")


# -- bivector partition audit ---------------------------------------------


def bivector_audit(n: int):
    """Orbit-by-orbit count of the nonzero bivectors on n generators.

    Returns (partition_sum, whole, gap) where whole = R^(n choose 2) - 1 and
    gap = partition_sum - whole.  The partition adds the normal-form orbits of
    a bivector r1*I1 + r2*I2 (r1 >= r2 >= 0, not both zero); for n = 3 the sum
    closes exactly, for n = 4 and n = 5 it overshoots.
    """
    if n == 3:
        parts = [sphere(2) * P]
    elif n == 4:
        g_or = poincare_sphere(2) * sphere(2)  # oriented planes in 4-space
        parts = [
            2 * g_or * P * P,       # r1 > r2 > 0, dual partner determined up to sign
            g_or * P,               # r1 > r2 = 0
            2 * P * sphere(2),      # r1 = r2 > 0, (anti-)self-dual halves
        ]
    elif n == 5:
        planes4 = projective(1, 2) * sphere(4)  # S4*S3/S1
        parts = [
            P * P * planes4 * sphere(2),   # r1 > r2 > 0
            P * planes4,                   # r1 > r2 = 0
            sphere(4) * P * sphere(2),     # r1 = r2 > 0, half the line choices each
        ]
    else:
        raise BadParams("bivector audit is worked out for n in {3, 4, 5}")
    partition_sum = sum(parts, MorphPoly.zero())
    whole = R ** (n * (n - 1) // 2) - 1
    gap = partition_sum - whole
    return partition_sum, whole, gap
