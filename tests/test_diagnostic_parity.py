"""Diagnostic parity over deterministic mutants of the shipped texts.

Each mutant is the Pisano golden graph, a shipped scenario's rule text, or
CLAUSES, a rule block with every clause of the grammar, with a few
characters from its source's MUTATION_CHARS inserted or deleted.
The golden graph has three mutant sets: "graph" edits string, IRI, comment
and directive characters; "graph:punct" edits the '.', ';', ',' and 'a'
that the parser's resync paths turn on, with quotes, carets and angle
brackets; and "graph:line" edits the blanks, ':', separators and 'a' that a
predicate line (verb, object, separator) is made of. "rules:clauses" edits
the ids, counts, keywords, targets and punctuation that the rule parser's
checks turn on. The recorded corpus
(diagnostic_parity.json) keeps each mutant's edits and every diagnostic,
line, column, severity and message, that the readers gave when it was made;
a "graph:line" mutant also keeps a digest of parse_raw's records, every
prefix, subject, predicate, object and offset. The readers must keep giving
exactly those.

Re-record only when a diagnostic is meant to change:

    PYTHONPATH=src python tests/test_diagnostic_parity.py
"""

import hashlib
import json
import random
from pathlib import Path

from twingraph import load_seed, parse, parse_rules
from twingraph.textformat import parse_raw

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).with_name("diagnostic_parity.json")
GOLDEN = ROOT / "examples" / "pisano" / "golden.rht.ttl"
SCENARIOS = [ROOT / "examples" / "pisano" / name
             for name in ("scenario.json", "scenario-noisy.json")]
_SCAN_CHARS = '\r\n"\\#^<>@$'
CLAUSES = ('# every clause, then FOR alone\n'
           'RULE r1 WHEN TYPE = "tilt" AND VALUE >= -2.5 FOR 3 SAMPLES MODE EVERY\n'
           '    THEN ACTIVATE <https://example.org/unit>, ALERT ex:curator VIA "sms"\n'
           'RULE r11 WHEN TYPE = "humidity" AND VALUE < 70 FOR 12 SAMPLES THEN ACTIVATE ex:siren\n')
MUTATION_CHARS = {"graph": _SCAN_CHARS, "rules:scenario.json": _SCAN_CHARS,
                  "rules:scenario-noisy.json": _SCAN_CHARS, "graph:punct": '.;,a"^<>',
                  "graph:line": " \t\n:.;,a", "rules:clauses": '\n "!.,:<>-1S'}
COUNTS = {"graph": 200, "rules:scenario.json": 50, "rules:scenario-noisy.json": 50,
          "graph:punct": 200, "graph:line": 200, "rules:clauses": 200}


def _read(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def _sources() -> dict[str, str]:
    sources = {"graph": _read(GOLDEN)}
    for path in SCENARIOS:
        sources[f"rules:{path.name}"] = json.loads(_read(path))["decider"]["rules"]
    sources["graph:punct"] = sources["graph"]  # last, so the older sets keep their seeds
    sources["graph:line"] = sources["graph"]
    sources["rules:clauses"] = CLAUSES
    return sources


def _mutate(text: str, edits) -> str:
    for pos, op, char in edits:
        if op == "+":
            text = text[:pos] + char + text[pos:]
        else:
            assert text[pos] == char, (pos, char)
            text = text[:pos] + text[pos + 1:]
    return text


def _rows(diagnostics) -> list[list]:
    return [[d.line, d.col, d.severity, d.message] for d in diagnostics]


def _records_digest(text: str) -> str:
    raw = parse_raw(text)
    records = [raw.prefixes, raw.types, raw.triples]  # NamedTuples dump as lists
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _diagnose(source: str, text: str, registry) -> dict:
    if source.startswith("graph"):
        raw = _rows(parse_raw(text).diagnostics)
        built = _rows(parse(text, registry)[1])
        assert built[:len(raw)] == raw  # parse reports the raw layer's first
        if source != "graph:line":
            return {"raw": raw, "built": built[len(raw):]}
        return {"raw": raw, "built": built[len(raw):], "records": _records_digest(text)}
    return {"rules": _rows(parse_rules(text)[1])}


def _random_edits(rng: random.Random, text: str, chars: str) -> list:
    # most inserts after the first land just after the edit before, and a
    # quote is often followed by a backslash, so escapes in strings occur
    edits, last = [], None
    for _ in range(rng.randint(1, 4)):
        deletable = [i for i, c in enumerate(text) if c in chars]
        if deletable and rng.random() < 0.3:
            pos = rng.choice(deletable)
            edit = [pos, "-", text[pos]]
        elif last is not None and rng.random() < 0.7:
            char = "\\" if last[2] == '"' and rng.random() < 0.5 else rng.choice(chars)
            edit = [min(last[0] + rng.randint(1, 3), len(text)), "+", char]
        else:
            edit = [rng.randint(0, len(text)), "+", rng.choice(chars)]
        last = edit
        edits.append(edit)
        text = _mutate(text, [edit])
    return edits


def record() -> dict:
    """Make the corpus from the sources as they are and the readers as they are."""
    registry = load_seed()
    corpus = {"sources": {}, "mutants": []}
    for seed, (source, text) in enumerate(_sources().items()):
        corpus["sources"][source] = hashlib.sha256(text.encode()).hexdigest()
        rng = random.Random(seed)
        for _ in range(COUNTS[source]):
            edits = _random_edits(rng, text, MUTATION_CHARS[source])
            corpus["mutants"].append({"source": source, "edits": edits,
                                      **_diagnose(source, _mutate(text, edits), registry)})
    return corpus


def _load():
    with open(CORPUS, encoding="utf-8") as f:
        return json.load(f)


def test_sources_are_the_recorded_ones():
    recorded = _load()["sources"]
    assert {source: hashlib.sha256(text.encode()).hexdigest()
            for source, text in _sources().items()} == recorded


def test_mutant_diagnostics_are_unchanged(seed_registry):
    sources, mutants = _sources(), _load()["mutants"]
    assert len(mutants) == sum(COUNTS.values())
    changed = []
    for index, mutant in enumerate(mutants):
        source = mutant.pop("source")
        edits = mutant.pop("edits")
        got = _diagnose(source, _mutate(sources[source], edits), seed_registry)
        if got != mutant:
            changed.append((index, source, edits, mutant, got))
    assert not changed, changed[:3]


if __name__ == "__main__":
    corpus = record()
    with open(CORPUS, "w", encoding="utf-8") as out:  # one mutant a line
        out.write('{"sources":%s,\n"mutants":[\n' % json.dumps(corpus["sources"]))
        out.write(",\n".join(json.dumps(m, separators=(",", ":")) for m in corpus["mutants"]))
        out.write("\n]}\n")
