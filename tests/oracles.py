"""Independent reference implementations used to cross-check package output.

Everything here is deliberately written with a different algorithmic shape
than the package code (string windows instead of index scans, Fraction
arithmetic instead of floats) so agreement is meaningful.
"""

import math
from fractions import Fraction

import numpy as np

from ckqg.corpus import BOS, EOS
from ckqg.kb_extract import concept_tokens
from ckqg.nn import tensor as T
from ckqg.nn.layers import lstm_cell
from ckqg.nn.tensor import Tensor, length_mask
from ckqg.qg_model import (PROB_FLOOR, BeamHypothesis, decode_step,
                           init_decoder_state)


def windows(tokens, n):
    return [" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def contains_contiguous(concept: str, tokens: list[str]) -> bool:
    toks = concept_tokens(concept)
    return len(toks) > 0 and " ".join(toks) in windows(list(tokens), len(toks))


def brute_force_extract(passage, question, stores):
    """Scan every triple in every store against both orientations.

    Returns (head, relation, tail, source, swapped) tuples, deduplicated by
    (head, relation, tail) with first occurrence winning, in store order.
    Retrieval is modeled by requiring some head token in the passage, which
    is what makes an index-based lookup reachable at all.
    """
    out, seen = [], set()
    for store in stores:
        for t in store.triples:
            if not any(tok in passage for tok in concept_tokens(t.head)):
                continue
            if contains_contiguous(t.head, passage) and contains_contiguous(t.tail, question):
                key = (t.head, t.relation, t.tail)
                if key not in seen:
                    seen.add(key)
                    out.append((t.head, t.relation, t.tail, t.source, False))
            elif contains_contiguous(t.tail, passage) and contains_contiguous(t.head, question):
                key = (t.tail, t.relation, t.head)
                if key not in seen:
                    seen.add(key)
                    out.append((t.tail, t.relation, t.head, t.source, True))
    return out


def ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        key = tuple(tokens[i:i + n])
        counts[key] = counts.get(key, 0) + 1
    return counts


def reference_bleu(references, hypotheses, max_order=4):
    """Corpus BLEU with exact Fraction arithmetic.

    Smoothing: add one to numerator and denominator of every order above 1,
    applied only when some order above 1 has a zero match count. Returns
    BLEU-1..BLEU-max_order as floats in [0, 100].
    """
    assert len(references) == len(hypotheses)
    scores = []
    for order in range(1, max_order + 1):
        matched = [0] * order
        total = [0] * order
        hyp_len = ref_len = 0
        for ref, hyp in zip(references, hypotheses):
            hyp_len += len(hyp)
            ref_len += len(ref)
            for n in range(1, order + 1):
                rc = ngram_counts(ref, n)
                hc = ngram_counts(hyp, n)
                matched[n - 1] += sum(min(c, rc.get(g, 0)) for g, c in hc.items())
                total[n - 1] += max(len(hyp) - n + 1, 0)
        smooth = any(matched[n] == 0 for n in range(1, order))
        precision_product = Fraction(1)
        ok = True
        for n in range(order):
            num, den = matched[n], total[n]
            if n > 0 and smooth:
                num, den = num + 1, den + 1
            if num == 0 or den == 0:
                ok = False
                break
            precision_product *= Fraction(num, den)
        if not ok:
            scores.append(0.0)
            continue
        geo = float(precision_product) ** (1.0 / order)
        bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len) if hyp_len else 0.0
        scores.append(100.0 * bp * geo)
    return scores


def lcs_length(a, b):
    """Classic quadratic dynamic program, for ROUGE-L cross-checks."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def reference_rouge_l(references, hypotheses, beta=1.2):
    """Mean per-pair LCS F-score, Fraction arithmetic until the last step."""
    total = 0.0
    for ref, hyp in zip(references, hypotheses):
        lcs = lcs_length(ref, hyp)
        if lcs == 0:
            continue
        p = Fraction(lcs, len(hyp))
        r = Fraction(lcs, len(ref))
        b2 = Fraction(beta).limit_denominator() ** 2
        f = (1 + b2) * p * r / (r + b2 * p)
        total += float(f)
    return 100.0 * total / len(references)


def reference_greedy_decode(params, prefix, enc, kmem, copy_ids, extended_size,
                            *, max_len):
    """Argmax decoding for a single sample, one batch-1 decode_step per
    token; stops at EOS or max_len tokens."""
    state = init_decoder_state(params, prefix, enc.bw_final)
    y = np.array([BOS])
    ids = []
    for _ in range(max_len):
        out, state = decode_step(params, prefix, y, state, enc, kmem,
                                 copy_ids, extended_size)
        tok = int(np.argmax(out.p.data[0]))
        if tok == EOS:
            break
        ids.append(tok)
        y = np.array([tok])
    return ids


def reference_beam_search(params, prefix, enc, kmem, copy_ids, extended_size,
                          *, beam, max_len, length_penalty=0.7):
    """Beam search one hypothesis at a time: a batch-1 decode_step per live
    hypothesis and a full stable argsort of its extended-vocabulary row."""
    live = [((), 0.0, init_decoder_state(params, prefix, enc.bw_final))]
    done = []
    for _ in range(max_len):
        if not live:
            break
        cands = []
        for ids, logp, state in live:
            y = np.array([ids[-1] if ids else BOS])
            out, nstate = decode_step(params, prefix, y, state, enc, kmem,
                                      copy_ids, extended_size)
            lp = np.log(np.maximum(out.p.data[0], PROB_FLOOR))
            for tok in np.argsort(-lp, kind="stable")[:beam]:
                cands.append((logp + float(lp[tok]), ids, int(tok), nstate))
        cands.sort(key=lambda cand: (-cand[0], cand[1] + (cand[2],)))
        live = []
        for total, ids, tok, nstate in cands[:beam]:
            if tok == EOS:
                norm = total / (len(ids) + 1) ** length_penalty
                done.append((norm, total, ids))
            else:
                live.append((ids + (tok,), total, nstate))
    for ids, logp, _ in live:
        done.append((logp / max(len(ids), 1) ** length_penalty, logp, ids))
    norm, raw, ids = max(done, key=lambda d: (d[0], tuple(-i for i in d[2])))
    return BeamHypothesis(ids=list(ids), score=norm, logprob=raw)


def _masked_carry(new, prev, m):
    # m is [B, 1]: True inside the sample, False on pads
    return T.add(T.mul(new, m), T.mul(prev, 1.0 - m))


def reference_run_lstm(xs, lengths, w, b, reverse=False):
    """One LSTM direction as a chain of per-step tape nodes: ``lstm_cell``
    on each step, then a masked carry of ``(h, c)`` over pad steps.

    Returns (H [B,L,h], h_final, c_final); every op is differentiated by the
    tape, so gradients come from the generic rules, not a hand-written BPTT.
    """
    nb, nl, dim = xs.shape
    hidden = w.shape[1] // 4
    h = Tensor(np.zeros((nb, hidden)))
    c = Tensor(np.zeros((nb, hidden)))
    valid = length_mask(lengths, nl)
    xs_t = T.split(xs, nl, axis=1)
    steps = range(nl - 1, -1, -1) if reverse else range(nl)
    outs = [None] * nl
    for t in steps:
        x_t = T.reshape(xs_t[t], (nb, dim))
        m = valid[:, t:t + 1]
        h_new, c_new = lstm_cell(x_t, h, c, w, b)
        h = _masked_carry(h_new, h, m)
        c = _masked_carry(c_new, c, m)
        outs[t] = h
    return T.stack(outs, axis=1), h, c
