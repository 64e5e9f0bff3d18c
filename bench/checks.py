"""Output checks for the three workloads, made apart from the timed calls.

Each check takes the operations and the reports one pass produced, and returns
one list of problems per operation.  Values are compared with the exact
routines in oracle.py, which share no code with evencob's linear algebra, or
with properties the method must have.  evencob's library is called only to
re-create the sampled inputs and to produce values under test that a campaign
report does not carry: the maslov_index of a sampled triple, the composite of
a sampled pair, and a chain composed in another bracketing.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import oracle


def _rows(matrix) -> list[list[Fraction]]:
    return [list(matrix.row(i)) for i in range(matrix.rows)]


def _meet_dim(a, b, n: int) -> int:
    return len(a) + len(b) - oracle.rank(a + b, n)


def _parity_prediction(l1, l2, l3, n: int) -> int:
    pairs = ((l1, l2), (l1, l3), (l2, l3))
    return (len(l1) + sum(_meet_dim(a, b, n) for a, b in pairs)) % 2


def _report(text: str, problems: list[str]) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        problems.append("the report is not JSON")
        return {"status": None, "results": [{}]}


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: evencob gives {got!r}, expected {want!r}")


def check_parity(ops: list[list[str]], reports: list[str]) -> list[list[str]]:
    from evencob.maslov import maslov_index
    from evencob.sampling import random_triple

    out = []
    for argv, text in zip(ops, reports):
        problems: list[str] = []
        report = _report(text, problems)
        _expect(problems, "status", report["status"], "holds")
        _expect(problems, "checked", report["results"][0].get("checked"), 1)
        seed = int(argv[argv.index("--seed") + 1])
        genus_max = int(argv[argv.index("--genus-max") + 1])
        triple = random_triple(seed, genus_max)
        n = triple.space.dim
        gram = _rows(triple.space.gram)
        lags = [oracle.row_reduce(_rows(lag.basis), n)[0] for lag in triple.lagrangians()]
        index = oracle.kashiwara_index(gram, *lags)
        _expect(problems, "maslov_index(random_triple)", maslov_index(triple), index)
        _expect(problems, "index parity", index % 2, _parity_prediction(*lags, n))
        out.append(problems)
    return out


def _image(matrix, vectors) -> list[list[Fraction]]:
    return [oracle.apply(_rows(matrix), v) for v in vectors]


def _even_rhs(m) -> int:
    span = oracle.rank(
        _image(m.j_src_h1, _rows(m.source.lagrangian.basis))
        + _image(m.j_tgt_h1, _rows(m.target.lagrangian.basis)),
        m.h1_dim,
    )
    one_sided = int((not m.source.genera) != (not m.target.genera))
    terms = span + m.h1_dim + m.h0_dim + len(m.source.genera) + sum(m.target.genera) + one_sided
    return terms % 2


def check_glue(m1, m2, composite) -> list[str]:
    """Mayer-Vietoris Betti numbers, the Maslov weight correction, and evenness."""
    from evencob.cobordism import validate

    problems: list[str] = []
    middle = m1.target
    b1_mid, b0_mid = 2 * sum(middle.genera), len(middle.genera)
    rank1 = oracle.rank(_rows(m1.j_tgt_h1) + _rows(m2.j_src_h1), b1_mid)
    rank0 = oracle.rank(_rows(m1.j_tgt_h0) + _rows(m2.j_src_h0), b0_mid)
    beta0 = m1.h0_dim + m2.h0_dim - rank0
    beta1 = m1.h1_dim + m2.h1_dim - rank1 + (b0_mid - rank0)
    _expect(problems, "beta1", composite.h1_dim, beta1)
    _expect(problems, "beta0", composite.h0_dim, beta0)
    pushed = oracle.preimage(
        _rows(m1.j_tgt_h1), _image(m1.j_src_h1, _rows(m1.source.lagrangian.basis)), b1_mid
    )
    pulled = oracle.preimage(
        _rows(m2.j_src_h1), _image(m2.j_tgt_h1, _rows(m2.target.lagrangian.basis)), b1_mid
    )
    correction = oracle.kashiwara_index(
        oracle.standard_gram(middle.genera), pushed, _rows(middle.lagrangian.basis), pulled
    )
    _expect(problems, "weight", composite.weight, m1.weight + m2.weight - correction)
    _expect(problems, "weight parity of the composite", composite.weight % 2, _even_rhs(composite))
    _expect(problems, "validate(composite)", validate(composite), [])
    return problems


def check_closure(ops: list[list[str]], reports: list[str]) -> list[list[str]]:
    from evencob.cobordism import compose
    from evencob.sampling import random_even_pair

    out = []
    for argv, text in zip(ops, reports):
        problems: list[str] = []
        report = _report(text, problems)
        _expect(problems, "status", report["status"], "holds")
        records = report["results"][0].get("abstract_records", {})
        _expect(problems, "abstract even + odd", records.get("even", 0) + records.get("odd", 0), 1)
        seed = int(argv[argv.index("--seed") + 1])
        genus_max = int(argv[argv.index("--genus-max") + 1])
        m1, m2 = random_even_pair(seed, genus_max)
        problems += check_glue(m1, m2, compose(m1, m2))
        out.append(problems)
    return out


# -- file-replay -----------------------------------------------------------------


def _lines(text: str) -> list[list[str]]:
    return [ln.split("#", 1)[0].split() for ln in text.splitlines() if ln.split("#", 1)[0].strip()]


def parse_scenario(text: str):
    """The form and the three Lagrangians of a one-triple .ssf file."""
    lines = _lines(text)
    pos, gram, subspaces, triple = 0, [], {}, None
    while pos < len(lines):
        head = lines[pos]
        pos += 1
        if head[0] == "form":
            n = int(head[1])
            gram = [[Fraction(x) for x in ln] for ln in lines[pos : pos + n]]
            pos += n
        elif head[0] == "subspace":
            k = int(head[2])
            subspaces[head[1]] = [[Fraction(x) for x in ln] for ln in lines[pos : pos + k]]
            pos += k
        elif head[0] == "triple":
            triple = head[1:4]
    n = len(gram)
    return gram, [oracle.row_reduce(subspaces[name], n)[0] for name in triple]


def parse_chain(text: str):
    """Objects and morphism records of a .cbf file of explicit records."""
    lines = _lines(text)
    pos, objects, records = 0, {}, []
    while pos < len(lines):
        head = lines[pos]
        pos += 1
        if head[0] == "object":
            genera = [int(g) for g in head[3:]]
            k = int(lines[pos][1])
            rows = lines[pos + 1 : pos + 1 + k]
            objects[head[1]] = (genera, [[Fraction(x) for x in ln] for ln in rows])
            pos += 1 + k
        elif head[0] == "morphism":
            src, dst, h1, h0 = objects[head[2]], objects[head[3]], int(head[7]), int(head[9])
            blocks = {}
            for label, rows, cols in (
                ("jsrc_h1", h1, 2 * sum(src[0])),
                ("jtgt_h1", h1, 2 * sum(dst[0])),
                ("jsrc_h0", h0, len(src[0])),
                ("jtgt_h0", h0, len(dst[0])),
            ):
                pos += 1  # the block label
                height = rows if rows and cols else 0
                blocks[label] = [[Fraction(x) for x in ln] for ln in lines[pos : pos + height]]
                pos += height
            records.append((head[1], src, dst, h1, blocks))
    return records


def _lagrangian_span(record) -> int:
    _, src, dst, h1, blocks = record
    vectors = [oracle.apply(blocks["jsrc_h1"], v) for v in src[1]]
    vectors += [oracle.apply(blocks["jtgt_h1"], v) for v in dst[1]]
    return oracle.rank(vectors, h1)


def _scenario_problems(command: str, report: dict, text: str) -> list[str]:
    problems: list[str] = []
    gram, (l1, l2, l3) = parse_scenario(text)
    n = len(gram)
    index = oracle.kashiwara_index(gram, l1, l2, l3)
    meet13, meet23 = oracle.intersection(l1, l3, n), oracle.intersection(l2, l3, n)
    radical_dim = oracle.rank(meet13 + meet23, n)
    if command == "maslov":
        _expect(problems, "status", report["status"], "ok")
        result = report["results"][0]
        sum12 = oracle.rank(l1 + l2, n)
        want = {
            "maslov_index": index,
            "parity": index % 2,
            "parity_prediction": _parity_prediction(l1, l2, l3, n),
            "domain_dim": sum12 + len(l3) - oracle.rank(l1 + l2 + l3, n),
            "annihilator_dim": radical_dim,
        }
        for key, value in want.items():
            _expect(problems, key, result.get(key), value)
    else:
        _expect(problems, "status", report["status"], "holds")
        details = report["results"][0].get("details", {})
        _expect(problems, "radical_dim", details.get("radical_dim"), radical_dim)
        _expect(problems, "expected_dim", details.get("expected_dim"), radical_dim)
    return problems


def _chain_problems(command: str, report: dict, text: str) -> list[str]:
    from evencob.cobordism import compose
    from evencob.formats import parse_pipeline

    problems: list[str] = []
    _expect(problems, "status", report["status"], "ok")
    records = parse_chain(text)
    results = report["results"]
    for result in results:
        _expect(problems, "violations", result.get("violations"), [])
        _expect(problems, "even", result.get("even"), True)
    if command == "even":
        _expect(problems, "record count", len(results), len(records))
        for result, record in zip(results, records):
            _expect(
                problems,
                f"lagrangian_span of {record[0]}",
                result.get("terms", {}).get("lagrangian_span"),
                _lagrangian_span(record),
            )
    else:
        morphisms = [entry.morphism for entry in parse_pipeline(text).entries]
        right = morphisms[-1]
        for m in reversed(morphisms[:-1]):
            right = compose(m, right)
        summary = results[0]
        for key, value in (
            ("weight", right.weight), ("beta1", right.h1_dim), ("beta0", right.h0_dim)
        ):
            _expect(problems, f"{key} in the other bracketing", summary.get(key), value)
    return problems


def check_files(ops: list[list[str]], reports: list[str], root: Path) -> list[list[str]]:
    out = []
    for argv, text in zip(ops, reports):
        problems: list[str] = []
        report = _report(text, problems)
        if not problems:
            source = (root / argv[argv.index("--in") + 1]).read_text()
            if argv[0] in ("maslov", "check"):
                problems += _scenario_problems(argv[0], report, source)
            else:
                problems += _chain_problems(argv[0], report, source)
        out.append(problems)
    return out


def check(workload: str, ops: list[list[str]], reports: list[str], root: Path) -> list[list[str]]:
    if workload == "parity-campaign":
        return check_parity(ops, reports)
    if workload == "closure-campaign":
        return check_closure(ops, reports)
    return check_files(ops, reports, root)
