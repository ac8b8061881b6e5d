"""Output checks: every WER the pipeline reports is recomputed from its rows."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from kbrerank import evaluation

SCORER_LABELS = ("first-pass", "ngram", "lstm", "reranker", "reranker+lstm", "oracle")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_lists(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def unequal_length_share(lists: list[dict]) -> float:
    unequal = sum(len({len(h["tokens"]) for h in rec["hypotheses"]}) > 1 for rec in lists)
    return unequal / len(lists)


def _errors(ref, hyp) -> tuple:
    return evaluation.wer(tuple(ref), tuple(hyp))


def read_summary(path: Path) -> tuple[dict, dict]:
    """(WER table as {split: {label: printed percent}}, tuned weights per scorer)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    splits = lines[0].split()
    table = {split: {} for split in splits}
    weights = {}
    for line in lines[1:]:
        if line.startswith("# "):
            label, _, raw = line[2:].partition(": weights ")
            weights[label] = json.loads(raw)
        elif line.strip():
            label, *cells = line.split()
            for split, cell in zip(splits, cells):
                table[split][label] = cell
    return table, weights


def check_table(out: Path, lists_by_split: dict, problems: list) -> dict:
    """Recompute each report CSV and the summary table; returns WER percents."""
    printed, _ = read_summary(out / "summary.txt")
    recomputed: dict = {}
    for split, lists in lists_by_split.items():
        by_id = {rec["id"]: rec for rec in lists}
        recomputed[split] = {}
        for label in SCORER_LABELS:
            errors = words = 0
            if label == "oracle":
                for rec in lists:
                    best = min(
                        (_errors(rec["reference"], h["tokens"]) for h in rec["hypotheses"]),
                        key=lambda sdin: sdin[0] + sdin[1] + sdin[2],
                    )
                    errors += best[0] + best[1] + best[2]
                    words += best[3]
            else:
                report = out / f"report_{split}_{label.replace('+', '_')}.csv"
                with open(report, encoding="utf-8", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                if [r["utt_id"] for r in rows] != [rec["id"] for rec in lists]:
                    problems.append(f"{report.name}: utterances differ from the input lists")
                    continue
                for row in rows:
                    rec = by_id[row["utt_id"]]
                    chosen = int(row["chosen"])
                    s, d, i, n = _errors(rec["reference"], rec["hypotheses"][chosen]["tokens"])
                    got = tuple(int(row[k]) for k in ("substitutions", "deletions", "insertions", "ref_words"))
                    if got != (s, d, i, n):
                        problems.append(f"{report.name}: {row['utt_id']} counts {got} != {(s, d, i, n)}")
                    errors += s + d + i
                    words += n
            pct = 100.0 * errors / words
            recomputed[split][label] = pct
            if printed.get(split, {}).get(label) != f"{pct:.2f}":
                problems.append(
                    f"summary.txt: {split} {label} reads {printed.get(split, {}).get(label)}, "
                    f"recomputed {pct:.2f}"
                )
    test = recomputed.get("test", {})
    if {"oracle", "reranker", "first-pass"} <= test.keys() and not (
        test["oracle"] <= test["reranker"] <= test["first-pass"]
    ):
        problems.append(
            "test split violates oracle <= reranker <= first-pass: "
            f"{test['oracle']:.2f} / {test['reranker']:.2f} / {test['first-pass']:.2f}"
        )
    return recomputed


def check_selections(path: Path, lists: list[dict], problems: list) -> list[int]:
    """One line per utterance, in order, with an in-range chosen_index."""
    chosen = []
    rows = load_lists(path)
    if len(rows) != len(lists):
        problems.append(f"{path.name}: {len(rows)} lines for {len(lists)} utterances")
        return chosen
    for row, rec in zip(rows, lists):
        idx = row.get("chosen_index")
        if row.get("id") != rec["id"] or not isinstance(idx, int) or not 0 <= idx < len(rec["hypotheses"]):
            problems.append(f"{path.name}: bad selection {row}")
            return []
        if row.get("tokens") != rec["hypotheses"][idx]["tokens"]:
            problems.append(f"{path.name}: {rec['id']} tokens differ from hypothesis {idx}")
        chosen.append(idx)
    return chosen


def report_choices(out: Path, split: str, scorer: str) -> list[int]:
    with open(out / f"report_{split}_{scorer.replace('+', '_')}.csv", encoding="utf-8", newline="") as fh:
        return [int(r["chosen"]) for r in csv.DictReader(fh)]
