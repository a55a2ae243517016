"""Independent reference implementations used to cross-check package output.

Everything here is deliberately written with a different algorithmic shape
than the package code (string windows instead of index scans, Fraction
arithmetic instead of floats) so agreement is meaningful.
"""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ckqg.corpus import BOS, EOS
from ckqg.kb_extract import concept_tokens
from ckqg.nn import tensor as T
from ckqg.nn.layers import linear, lstm_cell
from ckqg.nn.tensor import Tensor, length_mask
from ckqg.qg_model import (PROB_FLOOR, BeamHypothesis, decoder_state_step,
                           init_decoder_state)


def run_one_thread(script: str) -> subprocess.CompletedProcess:
    """Run the Python source ``script`` in a child process at one BLAS
    thread, where a product's bits do not depend on how OpenBLAS splits it
    between threads; the package and these oracles import there."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")]),
           **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)


def windows(tokens, n):
    return [" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def contains_contiguous(concept: str, tokens: list[str]) -> bool:
    toks = concept_tokens(concept)
    return len(toks) > 0 and " ".join(toks) in windows(list(tokens), len(toks))


def brute_force_extract(passage, question, stores, stopwords=frozenset()):
    """Scan every triple in every store against both orientations.

    Returns (head, relation, tail, source, swapped) tuples, deduplicated by
    (head, relation, tail) with first occurrence winning, in store order.
    A triple is kept iff its KB head has a token outside ``stopwords`` and
    it bridges in either orientation: KB head in the passage and KB tail in
    the question, or else KB tail in the passage and KB head in the
    question (kept swapped). With no stopwords given, the stopword clause
    keeps every triple.
    """
    out, seen = [], set()
    for store in stores:
        for t in store.triples:
            if all(tok in stopwords for tok in concept_tokens(t.head)):
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


@dataclass
class OutputDistribution:
    p_vocab: Tensor      # [B, V]
    p_copy: Tensor       # [B, extended]
    p: Tensor            # [B, extended] mixture
    alpha: Tensor        # [B, Lp] passage attention, the copy weights
    p_g: Tensor          # [B, 1] generate-vs-copy gate


def scatter_sum(weights: Tensor, ids: np.ndarray, size: int) -> Tensor:
    """Sum ``weights[b, l]`` into output bucket ``ids[b, l]`` per batch row,
    as a taped op: attention mass on positions holding the same
    extended-vocabulary id aggregates."""
    w = weights if isinstance(weights, Tensor) else Tensor(weights)
    ids = np.asarray(ids, dtype=np.intp)
    if ids.shape != w.shape:
        raise T.ShapeError(f"scatter_sum: ids shape {ids.shape} vs weights {w.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise T.ShapeError(f"scatter_sum: id out of range for size {size}")
    nb = w.shape[0]
    data = np.zeros((nb, size), dtype=np.float64)
    rows = np.arange(nb)[:, None]
    np.add.at(data, (rows, ids), w.data)

    def backward(g):
        w._accumulate(g[rows, ids])

    return Tensor._from_op(data, (w,), backward, "scatter_sum")


def copy_distribution(alpha, copy_ids, extended_size):
    """Aggregate attention mass per extended-vocabulary id, densely.

    Pad positions carry exactly zero attention, so the pad bucket stays empty.
    One sample's ``copy_ids`` broadcast against every row of ``alpha``.
    """
    return scatter_sum(alpha, np.broadcast_to(copy_ids, alpha.shape), extended_size)


def reference_decode_step(params, prefix, y_prev, state, memory):
    """One decoder step with the full output distribution over the extended
    vocabulary, as a taped composition: ``decoder_state_step``, the softmax
    over the vocabulary padded with zeros past it, a dense scatter of the
    copy attention, and the mixture of the two by the gate ``p_g``. The
    reference for ``qg_model.decode_step``, whose log probabilities are
    ``log(max(p, PROB_FLOOR))`` of this ``p``."""
    u, alpha, p_g, new_state = decoder_state_step(params, prefix, y_prev, state, memory)
    nb, vocab_size = u.shape[0], params["emb.word"].shape[0]
    extended_size = memory.extended_size
    p_vocab = T.softmax(linear(params, f"{prefix}.out", u), axis=-1)
    p_copy = copy_distribution(alpha, memory.copy_ids, extended_size)
    if extended_size > vocab_size:
        tail = Tensor(np.zeros((nb, extended_size - vocab_size)))
        p_vocab_ext = T.concat([p_vocab, tail], axis=-1)
    else:
        p_vocab_ext = p_vocab
    p = T.add(T.mul(p_vocab_ext, p_g), T.mul(p_copy, T.add(T.mul(p_g, -1.0), 1.0)))
    return OutputDistribution(p_vocab=p_vocab, p_copy=p_copy, p=p, alpha=alpha,
                              p_g=p_g), new_state


def reference_greedy_decode(params, prefix, memory, *, max_len):
    """Argmax decoding for a single sample, one batch-1
    reference_decode_step per token; stops at EOS or max_len tokens. Its
    products run under ``T.batch_invariant()``, as decoding's do."""
    ids = []
    with T.batch_invariant():
        state = init_decoder_state(params, prefix, memory.init_source)
        y = np.array([BOS])
        for _ in range(max_len):
            out, state = reference_decode_step(params, prefix, y, state, memory)
            tok = int(np.argmax(out.p.data[0]))
            if tok == EOS:
                break
            ids.append(tok)
            y = np.array([tok])
    return ids


def reference_beam_search(params, prefix, memory, *, beam, max_len, length_penalty=0.7):
    """Beam search one hypothesis at a time: a batch-1 reference_decode_step
    per live hypothesis and a full stable argsort of its extended-vocabulary
    row. Its products run under ``T.batch_invariant()``, as decoding's do, so
    each hypothesis is computed as one row padded alone to one chunk."""
    done = []
    with T.batch_invariant():
        live = [((), 0.0, init_decoder_state(params, prefix, memory.init_source))]
        for _ in range(max_len):
            if not live:
                break
            cands = []
            for ids, logp, state in live:
                y = np.array([ids[-1] if ids else BOS])
                out, nstate = reference_decode_step(params, prefix, y, state, memory)
                lp = np.log(np.maximum(out.p.data[0], PROB_FLOOR))
                for tok in np.argsort(-lp, kind="stable")[:beam]:
                    cands.append((logp + float(lp[tok]), ids, int(tok), nstate))
            cands.sort(key=lambda cand: (-cand[0], cand[1] + (cand[2],)))
            live = []
            for total, ids, tok, nstate in cands[:beam]:
                if tok == EOS:
                    norm = total / (len(ids) + 1) ** length_penalty
                    done.append((norm, ids))
                else:
                    live.append((ids + (tok,), total, nstate))
    for ids, logp, _ in live:
        done.append((logp / max(len(ids), 1) ** length_penalty, ids))
    norm, ids = max(done, key=lambda d: (d[0], tuple(-i for i in d[1])))
    return BeamHypothesis(ids=list(ids), score=norm)


def reference_teacher_forced_steps(params, prefix, memory, target_ids, target_lengths):
    """Teacher forcing through the full output distribution: a
    reference_decode_step per target after BOS, then its gold entry picked
    by ``gather_last``. Each step records the mixture over the extended
    vocabulary that ``gold_mixture_prob`` fuses away; the signature and the
    result are ``qg_model.teacher_forced_steps``'."""
    state = init_decoder_state(params, prefix, memory.init_source)
    steps = []
    for t in range(int(np.max(target_lengths)) - 1):
        out, state = reference_decode_step(params, prefix, target_ids[:, t], state, memory)
        steps.append(T.gather_last(out.p, target_ids[:, t + 1]))
    return steps


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
