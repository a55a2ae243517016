"""Corpus-level generation and classification metrics.

BLEU-1..4 with add-one smoothing on the higher orders (desk-scale corpora
rarely share 4-grams), LCS-based ROUGE-L, a reduced METEOR using exact and
stem matches only (no synonym tables, hence "meteor-lite"), plus relation
accuracy. All scores are percentages in [0, 100].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass

ROUGE_BETA = 1.2
METEOR_ALPHA = 0.9     # recall weight in the harmonic mean
METEOR_GAMMA = 0.5     # fragmentation penalty weight
METEOR_BETA = 3.0      # fragmentation penalty exponent


def _check_aligned(hypotheses, references) -> None:
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not references:
        raise ValueError("empty evaluation set")
    for r in references:
        if not r:
            raise ValueError("empty reference")


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: list[list[str]], references: list[list[str]],
         max_n: int = 4) -> float:
    """Corpus BLEU: clipped n-gram precision, brevity penalty.

    When any order above 1 has zero matches, every order above 1 gets +1 on
    both numerator and denominator; order 1 is never smoothed, so zero
    unigram overlap still scores 0.
    """
    if not 1 <= max_n <= 4:
        raise ValueError(f"max_n must be 1..4, got {max_n}")
    _check_aligned(hypotheses, references)
    matches = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            ref_counts = _ngrams(ref, n)
            for gram, count in _ngrams(hyp, n).items():
                matches[n] += min(count, ref_counts[gram])
            totals[n] += max(len(hyp) - n + 1, 0)
    if hyp_len == 0:
        return 0.0
    if max_n > 1 and any(matches[n] == 0 for n in range(2, max_n + 1)):
        for n in range(2, max_n + 1):
            matches[n] += 1
            totals[n] += 1
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if matches[n] == 0 or totals[n] == 0:
            return 0.0
        log_sum += math.log(matches[n] / totals[n])
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / max_n)


def lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(hypotheses: list[list[str]], references: list[list[str]],
            beta: float = ROUGE_BETA) -> float:
    """Mean per-pair LCS F-measure weighted toward recall."""
    _check_aligned(hypotheses, references)
    total = 0.0
    for hyp, ref in zip(hypotheses, references):
        lcs = lcs_length(hyp, ref)
        if lcs == 0:
            continue
        p = lcs / len(hyp)
        r = lcs / len(ref)
        total += (1 + beta * beta) * p * r / (r + beta * beta * p)
    return 100.0 * total / len(references)


# -- stemming -----------------------------------------------------------------

_VOWELS = set("aeiou")


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # VC-sequence count in the [C](VC)^m[V] decomposition
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_cons(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (_is_cons(word, len(word) - 3) and not _is_cons(word, len(word) - 2)
            and _is_cons(word, len(word) - 1) and word[-1] not in "wxy")


_STEP2 = (("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
          ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
          ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
          ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
          ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"))
_STEP3 = (("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
          ("ical", "ic"), ("ful", ""), ("ness", ""))
_STEP4 = ("al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
          "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize")


def porter_stem(word: str) -> str:
    """Classic suffix-stripping stemmer; expects lowercase tokens."""
    if len(word) <= 2:
        return word
    w = word

    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]

    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        stripped = None
        if w.endswith("ed") and _has_vowel(w[:-2]):
            stripped = w[:-2]
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            stripped = w[:-3]
        if stripped is not None:
            w = stripped
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _double_cons(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    for table in (_STEP2, _STEP3):
        for suffix, repl in table:
            if w.endswith(suffix):
                stem = w[:-len(suffix)]
                if _measure(stem) > 0:
                    w = stem + repl
                break

    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[:-len(suffix)]
            if _measure(stem) > 1 and (suffix != "ion" or stem[-1:] in ("s", "t")):
                w = stem
            break

    # step 5
    if w.endswith("e"):
        m = _measure(w[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(w[:-1])):
            w = w[:-1]
    if _measure(w) > 1 and _double_cons(w) and w.endswith("l"):
        w = w[:-1]
    return w


def _meteor_pair(hyp: list[str], ref: list[str]) -> float:
    if not hyp:
        return 0.0
    used = [False] * len(ref)
    pairs: list[tuple[int, int]] = []
    for i, tok in enumerate(hyp):
        for j, rt in enumerate(ref):
            if not used[j] and rt == tok:
                used[j] = True
                pairs.append((i, j))
                break
    matched = {i for i, _ in pairs}
    ref_stems = [porter_stem(t) for t in ref]
    for i, tok in enumerate(hyp):
        if i in matched:
            continue
        stem = porter_stem(tok)
        for j in range(len(ref)):
            if not used[j] and ref_stems[j] == stem:
                used[j] = True
                pairs.append((i, j))
                break
    m = len(pairs)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
    pairs.sort()
    chunks = 1 + sum(1 for (a, b), (c, d) in zip(pairs, pairs[1:])
                     if not (c == a + 1 and d == b + 1))
    frag = (chunks - 1) / m
    return f * (1.0 - METEOR_GAMMA * frag ** METEOR_BETA)


def meteor_lite(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    """Unigram alignment over exact then stemmed matches, recall-weighted
    harmonic mean, fragmentation penalty. Identical pairs score exactly 100
    because a single chunk carries no penalty."""
    _check_aligned(hypotheses, references)
    total = sum(_meteor_pair(h, r) for h, r in zip(hypotheses, references))
    return 100.0 * total / len(references)


# -- classification and reports -------------------------------------------------


def rc_accuracy(predictions, golds) -> float:
    predictions = list(predictions)
    golds = list(golds)
    if len(predictions) != len(golds):
        raise ValueError(f"{len(predictions)} predictions vs {len(golds)} golds")
    if not golds:
        raise ValueError("empty evaluation set")
    hits = sum(1 for p, g in zip(predictions, golds) if p == g)
    return 100.0 * hits / len(golds)


def tg_bleu1(predicted_tails: list[list[str]], gold_tails: list[list[str]]) -> float:
    return bleu(predicted_tails, gold_tails, max_n=1)


@dataclass
class EvalReport:
    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    rouge_l: float
    meteor: float
    n_samples: int

    def to_dict(self) -> dict:
        return asdict(self)


def qg_report(hypotheses: list[list[str]], references: list[list[str]]) -> EvalReport:
    return EvalReport(
        bleu1=bleu(hypotheses, references, max_n=1),
        bleu2=bleu(hypotheses, references, max_n=2),
        bleu3=bleu(hypotheses, references, max_n=3),
        bleu4=bleu(hypotheses, references, max_n=4),
        rouge_l=rouge_l(hypotheses, references),
        meteor=meteor_lite(hypotheses, references),
        n_samples=len(references),
    )
