"""Output checks that rest on computations made apart from flowsentry.

Every function here reads the program's output files and compares them with
values recomputed from the input CSV, from the artifact bytes, or with a
property of the method. Nothing here imports flowsentry, so a fault in the
program cannot hide itself by also being in the check. Each ``check_*``
function returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABEL_COLUMN = "label"
CATEGORY_COLUMN = "category"
BENIGN = "benign"
ATTACK = "attack"
# scores and losses are recomputed in another summation order, so they agree
# with the program's to float64 rounding, not bit for bit
RTOL = 1e-9
ATOL = 1e-12
MIN_ANOMALY_ACCURACY = 95.0  # acceptance criterion C04 on 5-sigma bursts


@dataclass(frozen=True)
class Corpus:
    features: np.ndarray      # (flows, n_features)
    is_attack: np.ndarray     # (flows,) bool
    categories: list[str]     # "" for benign flows


@dataclass(frozen=True)
class ArtifactData:
    config: dict
    threshold: float | None
    tensors: dict[str, np.ndarray]


@dataclass(frozen=True)
class Windows:
    """Non-overlapping windows of a corpus, labelled by strict majority."""

    length: int
    starts: np.ndarray        # (windows,) first flow of each window
    is_attack: np.ndarray     # (windows,) bool
    categories: list[str | None]


@dataclass(frozen=True)
class Verdicts:
    starts: np.ndarray
    scores: np.ndarray
    flagged: np.ndarray       # (windows,) bool, verdict == attack
    unknown: set[str]         # verdict values other than attack / benign


def read_corpus(path: str | Path) -> Corpus:
    """Parse a labelled flow CSV: every column but label and category is a
    feature."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        label_at = header.index(LABEL_COLUMN)
        category_at = header.index(CATEGORY_COLUMN)
        feature_at = [j for j in range(len(header)) if j not in (label_at, category_at)]
        rows = [row for row in reader if row]
    features = np.array([[float(row[j]) for j in feature_at] for row in rows])
    is_attack = np.array([row[label_at] != BENIGN for row in rows], dtype=bool)
    return Corpus(features.reshape(len(rows), len(feature_at)), is_attack,
                  [row[category_at] for row in rows])


def read_artifact(path: str | Path) -> ArtifactData:
    """Read an artifact from its documented byte layout: magic, version,
    header length, sorted-key JSON header, then float64 LE tensors."""
    data = Path(path).read_bytes()
    magic, _version, header_len = struct.unpack_from("<4sIQ", data)
    if magic != b"FSNT":
        raise ValueError(f"{path}: bad magic {magic!r}")
    start = struct.calcsize("<4sIQ")
    header = json.loads(data[start : start + header_len].decode("utf-8"))
    payload = data[start + header_len :]
    tensors = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        tensors[entry["name"]] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=entry["offset"]
        ).reshape(shape)
    threshold = header.get("threshold")
    return ArtifactData(
        header["model_config"],
        None if threshold is None else float(threshold["threshold"]),
        tensors,
    )


def normalize(features: np.ndarray, art: ArtifactData) -> np.ndarray:
    """Min-max scaling by the artifact's stats, clamped to [0, 1]; constant
    features map to 0."""
    lo, hi = art.tensors["norm.min"], art.tensors["norm.max"]
    span = hi - lo
    scaled = (features - lo) / np.where(span > 0, span, 1.0)
    return np.clip(np.where(span > 0, scaled, 0.0), 0.0, 1.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _lstm(U, b, h0, steps, W=None, inputs=None) -> np.ndarray:
    """Hidden states (B, steps, H) of one LSTM layer; gates are stacked
    (input, forget, cell candidate, output). Without inputs the layer runs
    on zero step inputs, so W is never read."""
    H = U.shape[1]
    h = h0
    c = np.zeros_like(h0)
    out = np.empty((h0.shape[0], steps, H))
    for t in range(steps):
        pre = h @ U.T + b
        if inputs is not None:
            pre = pre + inputs[:, t] @ W.T
        i = _sigmoid(pre[:, :H])
        f = _sigmoid(pre[:, H : 2 * H])
        g = np.tanh(pre[:, 2 * H : 3 * H])
        o = _sigmoid(pre[:, 3 * H :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t] = h
    return out


def reference_scores(art: ArtifactData, windows: np.ndarray) -> np.ndarray:
    """Reconstruction MSE of each (L, n) window under the deterministic
    encoder-decoder, written from the model's equations."""
    cfg = art.config
    if cfg["mode"] != "deterministic":
        raise ValueError(f"reference scorer covers deterministic models, not {cfg['mode']!r}")
    p = art.tensors
    B, L, _ = windows.shape
    H = cfg["hidden_dim"]
    current = windows
    for layer in range(cfg["num_layers"]):
        current = _lstm(p[f"enc{layer}.U"], p[f"enc{layer}.b"], np.zeros((B, H)), L,
                        W=p[f"enc{layer}.W"], inputs=current)
    z = current[:, -1] @ p["lat.W"].T + p["lat.b"]
    h0 = z @ p["seed.W"].T + p["seed.b"]
    current = _lstm(p["dec0.U"], p["dec0.b"], h0, L)
    for layer in range(1, cfg["num_layers"]):
        current = _lstm(p[f"dec{layer}.U"], p[f"dec{layer}.b"], np.zeros((B, H)), L,
                        W=p[f"dec{layer}.W"], inputs=current)
    recon = current @ p["out.W"].T + p["out.b"]
    return np.mean((recon - windows) ** 2, axis=(1, 2))


def make_windows(corpus: Corpus, length: int) -> Windows:
    """Windows at 0, L, 2L, ...; the trailing partial window is dropped. A
    window is attack iff strictly more than half its flows are; its category
    is the most common among its attack flows, ties broken by name."""
    count = (len(corpus.is_attack) - length) // length + 1
    starts = np.arange(count) * length
    n_attack = corpus.is_attack[: count * length].reshape(count, length).sum(axis=1)
    is_attack = 2 * n_attack > length
    categories: list[str | None] = []
    for start, attack in zip(starts, is_attack):
        if not attack:
            categories.append(None)
            continue
        span = range(start, start + length)
        tally = Counter(corpus.categories[k] for k in span
                        if corpus.is_attack[k] and corpus.categories[k])
        categories.append(min(tally, key=lambda c: (-tally[c], c)) if tally else None)
    return Windows(length, starts, is_attack, categories)


def read_verdicts(path: str | Path) -> Verdicts:
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return Verdicts(
        np.array([int(r["start_index"]) for r in rows], dtype=np.int64),
        np.array([float(r["score"]) for r in rows]),
        np.array([r["verdict"] == ATTACK for r in rows], dtype=bool),
        {r["verdict"] for r in rows} - {ATTACK, BENIGN},
    )


def check_detect(
    verdicts_path: str | Path,
    corpus: Corpus,
    windows: Windows,
    art: ArtifactData,
    sample: np.ndarray,
) -> list[str]:
    """One row per window at the expected starts, verdicts follow the
    artifact's threshold, scores are finite, non-negative and match the
    reference scorer on ``sample`` (window indices), and 5-sigma bursts are
    caught."""
    v = read_verdicts(verdicts_path)
    problems = []
    if len(v.starts) != len(windows.starts):
        return [f"detect: {len(v.starts)} rows for {len(windows.starts)} windows"]
    if not np.array_equal(v.starts, windows.starts):
        problems.append("detect: start indices are not 0, L, 2L, ...")
    if v.unknown:
        problems.append(f"detect: unknown verdicts {sorted(v.unknown)}")
    if not np.all(np.isfinite(v.scores)) or np.any(v.scores < 0):
        problems.append("detect: a score is not finite or is negative")
    if art.threshold is None or not np.array_equal(v.flagged, v.scores > art.threshold):
        problems.append("detect: a verdict disagrees with score > threshold")
    attacks = windows.is_attack
    if attacks.any():
        aa = 100.0 * float(v.flagged[attacks].mean())
        if aa < MIN_ANOMALY_ACCURACY:
            problems.append(f"detect: anomaly accuracy {aa:.2f}% below {MIN_ANOMALY_ACCURACY}%")
    scaled = normalize(corpus.features, art)
    X = np.stack([scaled[s : s + windows.length] for s in windows.starts[sample]])
    ref = reference_scores(art, X)
    if not np.allclose(ref, v.scores[sample], rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(ref - v.scores[sample])))
        problems.append(f"detect: scores differ from the reference scorer by up to {worst:.3e}")
    return problems


def _read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def _same(reported: str, expected: float | None) -> bool:
    if expected is None:
        return reported == ""
    return reported != "" and math.isclose(float(reported), expected, rel_tol=RTOL, abs_tol=ATOL)


def check_eval(report_dir: str | Path, windows: Windows, flagged: np.ndarray) -> list[str]:
    """Counts equal those recomputed from detect's verdicts and the majority
    labels, the summary's ratios follow from the counts, per-category rows
    match, and PR-curve recall does not rise with the percentile."""
    report_dir = Path(report_dir)
    s = _read_summary(report_dir / "summary.txt")
    problems = []
    try:
        tp, fp, tn, fn = (int(s[k]) for k in ("tp", "fp", "tn", "fn"))
    except (KeyError, ValueError):
        return ["eval: summary.txt lacks integer tp/fp/tn/fn"]
    attacks = windows.is_attack
    if len(flagged) != len(attacks):
        return [f"eval: {len(flagged)} verdicts for {len(attacks)} windows"]
    if tp + fp + tn + fn != len(attacks) or s.get("sequences") != str(len(attacks)):
        problems.append(f"eval: counts cover {tp + fp + tn + fn} windows, corpus has {len(attacks)}")
    expected = (
        int((flagged & attacks).sum()),
        int((flagged & ~attacks).sum()),
        int((~flagged & ~attacks).sum()),
        int((~flagged & attacks).sum()),
    )
    if (tp, fp, tn, fn) != expected:
        problems.append(f"eval: counts (tp, fp, tn, fn) {(tp, fp, tn, fn)}, recomputed {expected}")
    ba, aa = _ratio(tn, tn + fp), _ratio(tp, tp + fn)
    precision = _ratio(tp, tp + fp)
    f1 = None
    if precision is not None and aa is not None and precision + aa > 0:
        f1 = 2 * precision * aa / (precision + aa)
    derived = {
        "benign_accuracy": None if ba is None else 100.0 * ba,
        "anomaly_accuracy": None if aa is None else 100.0 * aa,
        "precision": precision,
        "recall": aa,
        "f1": f1,
    }
    for key, value in derived.items():
        if not _same(s.get(key, "?"), value):
            problems.append(f"eval: {key}={s.get(key)!r} does not follow from the counts ({value})")

    per_category = report_dir / "per_category.csv"
    if attacks.any():
        if not per_category.is_file():
            problems.append("eval: per_category.csv missing")
        else:
            with per_category.open(newline="") as fh:
                rows = {r["category"]: r for r in csv.DictReader(fh)}
            cats = np.array([c or "" for c in windows.categories])
            if set(rows) != set(cats[attacks]):
                problems.append(f"eval: per-category rows {sorted(rows)}, expected {sorted(set(cats[attacks]))}")
            for name, row in rows.items():
                members = attacks & (cats == name)
                hit = int((flagged & members).sum())
                recall = _ratio(hit, int(members.sum()))
                want = {
                    "anomaly_accuracy": None if recall is None else 100.0 * recall,
                    "precision": _ratio(hit, hit + fp),
                    "recall": recall,
                }
                if not all(_same(row[k], w) for k, w in want.items()):
                    problems.append(f"eval: per-category row {name!r} does not follow from the verdicts")

    pr_curve = report_dir / "pr_curve.csv"
    if not pr_curve.is_file():
        problems.append("eval: pr_curve.csv missing")
    else:
        with pr_curve.open(newline="") as fh:
            points = sorted((float(r["percentile"]), float(r["recall"])) for r in csv.DictReader(fh))
        recalls = [r for _, r in points]
        if any(b > a for a, b in zip(recalls, recalls[1:])):
            problems.append(f"eval: PR-curve recall rises with the percentile: {points}")
    return problems


def check_train(report_path: str | Path, lam_rec: float, lam_tml: float) -> list[str]:
    """Finite losses, joint = lam_rec * rec + lam_tml * tml per epoch, no
    triplet loss when its weight is 0, and the last epoch below the first."""
    with Path(report_path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["train: report has no epochs"]
    try:
        joint, rec, tml = (np.array([float(r[k]) for r in rows]) for k in
                           ("joint_loss", "reconstruction_loss", "triplet_loss"))
    except (KeyError, ValueError):
        return ["train: report lacks numeric joint/reconstruction/triplet losses"]
    problems = []
    if not all(np.all(np.isfinite(x)) for x in (joint, rec, tml)):
        problems.append("train: a loss is not finite")
    if not np.allclose(joint, lam_rec * rec + lam_tml * tml, rtol=RTOL, atol=ATOL):
        problems.append("train: joint loss differs from lam_rec * rec + lam_tml * tml")
    if lam_tml == 0 and np.any(tml != 0):
        problems.append("train: triplet loss is not 0 with lam_tml 0")
    if not joint[-1] < joint[0]:
        problems.append(f"train: last joint loss {joint[-1]} is not below the first {joint[0]}")
    return problems


def check_artifact(art: ArtifactData) -> list[str]:
    if art.threshold is None or not math.isfinite(art.threshold) or art.threshold <= 0:
        return [f"artifact: threshold {art.threshold} is not finite and above 0"]
    return []
