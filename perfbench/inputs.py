"""Deterministic inputs, built from the seed and cached on disk.

Two kinds of input exist:

- **Fixtures** depend on nothing but constants here, so they are built
  once per checkout through the program's own CLI and reused by every
  run: a base raw SDSS log (``repro generate sdss --raw-log``), a base
  training workload (``repro generate sdss``) and the ctfidf artifact
  the serving and offline workloads score through (``repro train
  --model ctfidf``). The model under test is therefore the same for
  every seed; what the seed varies is the traffic.
- **Seeded inputs** are derived from the fixtures with the run's seed:
  statement variants (the same SDSS templates with fresh constants, so
  every template keeps its real shape while the text is new), the
  offline-log (base sessions resampled, many with re-drawn constants)
  and the training subset. They are cheap to build and cached by seed
  as well.

The program receives only the generated files and request bodies.
"""

from __future__ import annotations

import gzip
import json
import random
import re
from bisect import bisect
from itertools import accumulate
from pathlib import Path

from common import CACHE_DIR, run_cli

FIXTURE_DIR = CACHE_DIR / "fixture-v1"
#: seeds of the fixtures (constants: the model under test never varies)
BASE_LOG_SEED = 7
BASE_WORKLOAD_SEED = 11
#: 2000 simulated sessions ~ 10k raw hits over ~2.7k distinct statements
BASE_LOG_SESSIONS = 2000
#: 1700 sessions ~ 1.4k distinct labelled statements
BASE_WORKLOAD_SESSIONS = 1700

_NUMBER = re.compile(r"(?<![\w.])(\d+)(\.\d+)?(?![\w.])")


def fixtures() -> dict[str, Path]:
    """Build (once) and return the fixture files."""
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    paths = {
        "base_log": FIXTURE_DIR / "base_log.jsonl.gz",
        "base_workload": FIXTURE_DIR / "base_workload.jsonl",
        "artifact": FIXTURE_DIR / "ctfidf.bin",
    }
    steps = (
        (
            "base_log",
            [
                "generate", "sdss", "--raw-log",
                "--sessions", str(BASE_LOG_SESSIONS),
                "--seed", str(BASE_LOG_SEED),
            ],
        ),
        (
            "base_workload",
            [
                "generate", "sdss",
                "--sessions", str(BASE_WORKLOAD_SESSIONS),
                "--seed", str(BASE_WORKLOAD_SEED),
            ],
        ),
    )
    for key, args in steps:
        if not paths[key].exists():
            tmp = paths[key].with_name("tmp-" + paths[key].name)
            run_cli([*args, "-o", str(tmp)])
            tmp.rename(paths[key])
    if not paths["artifact"].exists():
        tmp = paths["artifact"].with_name("tmp-ctfidf.bin")
        run_cli(
            [
                "train", str(paths["base_workload"]),
                "--model", "ctfidf", "--seed", "0", "-o", str(tmp),
            ]
        )
        tmp.rename(paths["artifact"])
    return paths


def _read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        return header, [json.loads(line) for line in handle if line.strip()]


def _write_jsonl(path: Path, header: dict, rows: list[dict]) -> None:
    tmp = path.with_name("tmp-" + path.name)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(tmp, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    tmp.rename(path)


def redraw_constants(statement: str, rng: random.Random) -> str:
    """The same statement shape with every numeric literal re-drawn
    (same digit count, same decimals), so templates keep their shape."""

    def draw(match: re.Match) -> str:
        whole, frac = match.group(1), match.group(2)
        digits = len(whole)
        lo = 0 if digits == 1 else 10 ** (digits - 1)
        text = str(rng.randint(lo, 10**digits - 1))
        if frac:
            text += "." + "".join(
                rng.choice("0123456789") for _ in range(len(frac) - 1)
            )
        return text

    return _NUMBER.sub(draw, statement)


class StatementSource:
    """Seeded SDSS-shaped statements with the base log's template skew.

    Templates are the base log's statements grouped by their
    digit-masked text. Each template is drawn with its observed hit count
    in the base log as weight, so the traffic has the log's measured
    (Figure 20) skew. :meth:`fresh` returns a statement no earlier call
    returned: a base statement of a drawn template with re-drawn
    constants (statements without constants are used verbatim once).
    """

    def __init__(self, base_log: Path, seed: int):
        _, rows = _read_jsonl(base_log)
        groups: dict[str, list[str]] = {}
        for row in rows:
            stmt = row["statement"]
            groups.setdefault(_NUMBER.sub("0", stmt), []).append(stmt)
        ordered = [groups[key] for key in sorted(groups)]
        self._templates = [sorted(set(g)) for g in ordered]
        self._cum = list(accumulate(len(g) for g in ordered))
        self._rng = random.Random(seed)
        self._seen: set[str] = set()

    def template(self, rng: random.Random) -> int:
        """A template index, drawn with the base log's hit counts."""
        return bisect(self._cum, rng.random() * self._cum[-1])

    def draw(self) -> tuple[int, str]:
        """``(template, statement)`` of a statement never returned before."""
        rng = self._rng
        while True:
            index = self.template(rng)
            stmt = redraw_constants(rng.choice(self._templates[index]), rng)
            if stmt not in self._seen:
                self._seen.add(stmt)
                return index, stmt

    def fresh(self) -> str:
        return self.draw()[1]


def offline_log(seed: int, base_log: Path, sessions: int) -> Path:
    """A ~``sessions``-session raw SDSS log (gzip JSONL) for ``seed``.

    Base sessions are resampled with replacement; half of them re-draw
    their constants (one mapping per session, so in-session repeats stay
    repeats). Session ids and timestamps are renumbered.
    """
    path = CACHE_DIR / f"log-s{seed}-n{sessions}.jsonl.gz"
    if path.exists():
        return path
    _, rows = _read_jsonl(base_log)
    by_session: dict[int, list[dict]] = {}
    for row in rows:
        by_session.setdefault(row["session_id"], []).append(row)
    keys = sorted(by_session)
    rng = random.Random(seed * 1_000_003 + 1)
    out: list[dict] = []
    for new_id in range(sessions):
        hits = by_session[rng.choice(keys)]
        redraw = rng.random() < 0.5
        mapping: dict[str, str] = {}
        offset = rng.uniform(0, 86400.0)
        for hit in hits:
            entry = dict(hit)
            if redraw:
                stmt = entry["statement"]
                if stmt not in mapping:
                    mapping[stmt] = redraw_constants(stmt, rng)
                entry["statement"] = mapping[stmt]
            entry["session_id"] = new_id
            entry["timestamp"] = entry["timestamp"] + offset
            out.append(entry)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    _write_jsonl(
        path,
        {"repro_log": 1, "name": f"sdss-log-s{seed}", "entries": len(out)},
        out,
    )
    return path


def train_workload(seed: int, base_workload: Path, rows: int) -> Path:
    """``rows`` labelled statements from the base workload for ``seed``.

    Stratified by statement length: the base records, sorted by length,
    are cut into ``rows`` equal strata and one record is drawn from each,
    so every seed trains on different statements with the same length
    profile (the character CNN's cost follows statement length).
    """
    path = CACHE_DIR / f"train-v2-s{seed}-n{rows}.jsonl"
    if path.exists():
        return path
    header, records = _read_jsonl(base_workload)
    rng = random.Random(seed * 1_000_003 + 2)
    ordered = sorted(records, key=lambda r: (len(r["statement"]), r["statement"]))
    rows = min(rows, len(ordered))
    cuts = [len(ordered) * i // rows for i in range(rows + 1)]
    chosen = [ordered[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]
    rng.shuffle(chosen)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    _write_jsonl(
        path,
        {**header, "name": f"sdss-train-s{seed}", "records": len(chosen)},
        chosen,
    )
    return path


def read_statements(path: Path) -> list[str]:
    """Statements of a workload/log file, in order (reference checks)."""
    return [row["statement"] for row in _read_jsonl(path)[1]]
