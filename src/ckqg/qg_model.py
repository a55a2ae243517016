"""Question generation network.

Feature-enriched biLSTM encoder with gated self-matching over the passage,
an attentional LSTM decoder with maxout readout, and a pointer-style copy
path over an extended per-batch vocabulary. The decoder is parametrized by
a name prefix so the tail-generation head can reuse the same step function
with its own weights.

Every decoder entry point reads a DecodeMemory: a batch's for teacher
forcing, one sample's for beam search. DecoderState holds the recurrence.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import BOS, EOS, UNK
from .nn import tensor as T
from .nn.layers import bilstm, linear, stacked_lstm_step
from .nn.params import ParameterSet
from .nn.tensor import Tensor, length_mask

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12
LOG_FLOOR = np.log(PROB_FLOOR)


def clamp_to_vocab(ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """Map extended-vocabulary ids back to UNK for embedding lookups."""
    ids = np.asarray(ids)
    return np.where(ids >= vocab_size, UNK, ids)


# -- encoder ----------------------------------------------------------------


@dataclass
class EncoderOutput:
    h_hat: Tensor        # [B, Lp, 2d] gated self-matched states
    mask: np.ndarray     # [B, Lp] bool, False on pads
    proj: Tensor         # [B, Lp, d] h_hat through the attention projection
    bw_final: Tensor     # [B, d] top-layer backward final state


def embed_source(params: ParameterSet, batch) -> Tensor:
    """Per-token features: word, answer-position, entity and POS embeddings."""
    parts = [
        T.embedding(params["emb.word"], batch.passage_ids),
        T.embedding(params["emb.bio"], batch.bio_ids),
        T.embedding(params["emb.ner"], batch.ner_ids),
        T.embedding(params["emb.pos"], batch.pos_ids),
    ]
    return T.concat(parts, axis=-1)


def self_match(params: ParameterSet, h: Tensor, mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """Bilinear self-attention summary f and blend gate g for each position."""
    scores = T.matmul(T.matmul(h, params["selfmatch.W"]), T.swapaxes(h, -1, -2))
    attn = T.softmax(scores, axis=-1, mask=mask[:, None, :])
    f = T.matmul(attn, h)
    g = T.sigmoid(linear(params, "gate", T.concat([h, f], axis=-1)))
    return f, g


def _matched(params: ParameterSet, h: Tensor, mask: np.ndarray,
             bw_final: Tensor) -> EncoderOutput:
    """The encoder output over biLSTM states ``h``: self-matching, the gated
    blend h_hat and its attention projection."""
    f, g = self_match(params, h, mask)
    h_hat = T.add(T.mul(g, f), T.mul(T.add(T.mul(g, -1.0), 1.0), h))
    proj = T.matmul(h_hat, params["attn.Wh"])
    return EncoderOutput(h_hat=h_hat, mask=mask, proj=proj, bw_final=bw_final)


def encode_passage(params: ParameterSet, batch) -> EncoderOutput:
    h, _, bw_final = bilstm(params, "enc", embed_source(params, batch),
                            batch.passage_lengths)
    return _matched(params, h, length_mask(batch.passage_lengths, h.shape[1]), bw_final)


def encode_passages(params: ParameterSet, batch) -> list[EncoderOutput]:
    """Each sample's encoding at its own width: one embedding and biLSTM
    pass over the batch, then each sample's rows ``h[i, :len_i]`` and
    ``bw_final[i]`` self-matched alone. Inside ``T.batch_invariant()`` the
    biLSTM's rows do not depend on the batch, and each softmax sums over the
    sample's own positions, so every value equals, bit for bit, that of
    encode_passage over a batch of the sample alone. The slices start no
    tape: this serves decoding, not training."""
    h, _, bw_final = bilstm(params, "enc", embed_source(params, batch),
                            batch.passage_lengths)
    return [_matched(params, Tensor(h.data[i:i + 1, :n].copy()), np.ones((1, n), bool),
                     Tensor(bw_final.data[i:i + 1]))
            for i, n in enumerate(batch.passage_lengths.tolist())]


# -- decoder ----------------------------------------------------------------


@dataclass
class KnowledgeMemory:
    """Rows the decoder may attend to besides the passage."""
    rows: Tensor         # [B, Lk, 2d]
    mask: np.ndarray     # [B, Lk]
    proj: Tensor         # [B, Lk, d]


def make_memory(params: ParameterSet, proj_name: str, rows: Tensor,
                mask: np.ndarray) -> KnowledgeMemory:
    return KnowledgeMemory(rows=rows, mask=mask,
                           proj=T.matmul(rows, params[proj_name]))


@dataclass
class DecodeMemory:
    """What the decoder reads besides its state: the passage encoding, the
    knowledge memory, the copy ids and the summary that seeds the decoder;
    of a batch in teacher forcing, of one sample in beam search."""
    enc: EncoderOutput
    kmem: KnowledgeMemory | None
    copy_ids: np.ndarray          # [B, Lp] extended-vocabulary ids
    extended_size: int
    init_source: Tensor           # [B, d] seeds the decoder state

    @cached_property
    def copy_buckets(self) -> tuple[np.ndarray, np.ndarray]:
        """A one-sample memory's distinct copy ids, ascending, and each
        passage position's index among them; computed on first use, so
        decode_step buckets a sample's copy mass the same way every step."""
        ids, bucket = np.unique(self.copy_ids, return_inverse=True)
        return ids, bucket.reshape(1, -1)


@dataclass
class DecoderState:
    states: list[tuple[Tensor, Tensor]]   # per-layer (h, c)
    s_tilde: Tensor                       # [B, d] readout feed for the next step


def init_decoder_state(params: ParameterSet, prefix: str, source: Tensor) -> DecoderState:
    """Seed the decoder from an encoder summary (one projection per layer);
    cells and the first readout feed start at zero."""
    states = []
    for k in range(params.layers):
        h0 = T.tanh(linear(params, f"{prefix}.init.l{k}", source))
        states.append((h0, Tensor(np.zeros(h0.shape))))
    return DecoderState(states=states, s_tilde=Tensor(np.zeros(h0.shape)))


def _read(s: Tensor, proj: Tensor, rows: Tensor, mask: np.ndarray
          ) -> tuple[Tensor, Tensor]:
    """Attention of the queries ``s`` over ``rows``, scored through their
    projection ``proj``, and the attention-weighted sum of the rows."""
    nb, width, d = s.shape[0], *proj.shape[1:]
    scores = T.matmul(proj, T.reshape(s, (nb, d, 1)))
    alpha = T.softmax(T.reshape(scores, (nb, width)), axis=-1, mask=mask)
    ctx = T.matmul(T.reshape(alpha, (nb, 1, width)), rows)
    return alpha, T.reshape(ctx, (nb, rows.shape[-1]))


def attention(s: Tensor, memory: DecodeMemory) -> tuple[Tensor, Tensor, Tensor | None]:
    """The passage attention [B, Lp], the passage context and the knowledge
    context (None without a knowledge memory) of the top hidden states
    ``s`` over ``memory``."""
    alpha, c = _read(s, memory.enc.proj, memory.enc.h_hat, memory.enc.mask)
    kmem = memory.kmem
    k = None if kmem is None else _read(s, kmem.proj, kmem.rows, kmem.mask)[1]
    return alpha, c, k


def _cell_step(params: ParameterSet, prefix: str, y_prev: np.ndarray,
               state: DecoderState) -> tuple[Tensor, Tensor, list[tuple[Tensor, Tensor]]]:
    """Embedding of the previous tokens, and the decoder LSTM stack's top
    hidden state and per-layer states after this step."""
    vocab_size = params["emb.word"].shape[0]
    emb = T.embedding(params["emb.word"], clamp_to_vocab(y_prev, vocab_size))
    x = T.concat([emb, state.s_tilde], axis=-1)
    s, new_states = stacked_lstm_step(params, f"{prefix}.cell", x, state.states)
    return emb, s, new_states


def _readout(params: ParameterSet, prefix: str, emb: Tensor, s: Tensor, c: Tensor,
             pre: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """The next readout feed, the readout ``u`` and the copy gate ``p_g``,
    given the blend's passage and knowledge terms ``pre``."""
    pre = T.add(pre, T.matmul(s, params[f"{prefix}.blend.s.W"]))
    s_tilde = T.tanh(T.add(pre, params[f"{prefix}.blend.b"]))
    z = T.dropout(T.concat([c, s], axis=-1))
    u = T.maxout(T.tanh(linear(params, f"{prefix}.readout", z)))
    p_g = T.sigmoid(linear(params, f"{prefix}.copy", T.concat([c, s, emb], axis=-1)))
    return s_tilde, u, p_g


def decoder_state_step(params: ParameterSet, prefix: str, y_prev: np.ndarray,
                       state: DecoderState, memory: DecodeMemory
                       ) -> tuple[Tensor, Tensor, Tensor, DecoderState]:
    """One decoder step over a batch, up to the output layer: the readout
    ``u`` [B, d] that ``{prefix}.out`` projects onto the vocabulary, the
    passage attention ``alpha`` and copy gate ``p_g`` of this step's output
    distribution, and the new state.

    The blend terms are summed in fixed order c, k, s so dropping the k term
    is numerically identical to a zeroed k-slice.
    """
    emb, s, new_states = _cell_step(params, prefix, y_prev, state)
    alpha, c, k = attention(s, memory)
    pre = T.matmul(c, params[f"{prefix}.blend.c.W"])
    if k is not None:
        pre = T.add(pre, T.matmul(k, params[f"{prefix}.blend.k.W"]))
    s_tilde, u, p_g = _readout(params, prefix, emb, s, c, pre)
    return u, alpha, p_g, DecoderState(states=new_states, s_tilde=s_tilde)


def decode_step(params: ParameterSet, prefix: str, y_prev: np.ndarray,
                state: DecoderState, memories: list[DecodeMemory],
                rows: list[int]) -> tuple[list[np.ndarray], DecoderState]:
    """One decoder step over a group of samples, as decoding needs it: the
    first ``rows[0]`` rows of ``y_prev`` and ``state`` continue
    ``memories[0]``, the next ``rows[1]`` rows ``memories[1]``, and so on.
    Returns each sample's ``log(max(p, PROB_FLOOR))`` [rows[i],
    extended_size], where ``p`` mixes the generate distribution, zero past
    the word vocabulary, with the copy distribution by the gate ``p_g``,
    and the new state.

    Run it under ``T.no_grad()`` and ``T.batch_invariant()``, as
    beam_search_group does. Row-wise work runs once over every row of the
    group: its products run in fixed chunks of ``T.CHUNK_ROWS`` rows, where
    a row's bits do not depend on the other rows. Attention, the knowledge
    term and the copy mass run per sample over its own widths, and the copy
    term is added only at the ids the sample's passage holds, where the
    full mixture differs from ``p_vocab * p_g``; those ids and each
    position's place among them are found once per memory
    (``DecodeMemory.copy_buckets``), not at every step. So every row's
    values equal, bit for bit, those of the full mixture (tests/oracles.py,
    ``reference_decode_step``) over that row alone under the same mode.
    """
    emb, s, new_states = _cell_step(params, prefix, y_prev, state)
    contexts, knowledge, k_rows, alphas = [], [], [], []
    lo = 0
    for mem, n in zip(memories, rows):
        alpha, c, k = attention(Tensor(s.data[lo:lo + n]), mem)
        contexts.append(c)
        alphas.append(alpha.data)
        if k is not None:
            knowledge.append(k)
            k_rows.extend(range(lo, lo + n))
        lo += n
    c = T.concat(contexts, axis=0)
    pre = T.matmul(c, params[f"{prefix}.blend.c.W"])
    if knowledge:   # on equipped samples' rows only, as each adds it alone
        k_term = T.matmul(T.concat(knowledge, axis=0), params[f"{prefix}.blend.k.W"])
        pre.data[k_rows] += k_term.data
    s_tilde, u, p_g = _readout(params, prefix, emb, s, c, pre)
    # p_vocab * p_g, the mixture off the copied ids, turned in place into
    # log probabilities sample by sample, after its copied ids are read
    generate = T.softmax(linear(params, f"{prefix}.out", u), axis=-1).data
    generate *= p_g.data
    keep = 1.0 - p_g.data   # the copy share
    vocab_size = generate.shape[1]
    out, lo = [], 0
    for mem, alpha, n in zip(memories, alphas, rows):
        g = generate[lo:lo + n]
        # copy mass per distinct id, summed in passage order from 0.0
        ids, bucket = mem.copy_buckets
        mass = np.zeros((n, ids.size))
        np.add.at(mass, (np.arange(n)[:, None], bucket), alpha)
        p = mass * keep[lo:lo + n]
        in_vocab = ids < vocab_size
        p[:, in_vocab] += g[:, ids[in_vocab]]
        np.maximum(g, PROB_FLOOR, out=g)
        np.log(g, out=g)
        lp = g if mem.extended_size == vocab_size else np.concatenate(
            [g, np.full((n, mem.extended_size - vocab_size), LOG_FLOOR)], axis=1)
        lp[:, ids] = np.log(np.maximum(p, PROB_FLOOR))
        out.append(lp)
        lo += n
    return out, DecoderState(states=new_states, s_tilde=s_tilde)


# -- teacher forcing and loss -------------------------------------------------


def teacher_forced_steps(params: ParameterSet, prefix: str, memory: DecodeMemory,
                         target_ids: np.ndarray, target_lengths: np.ndarray
                         ) -> list[Tensor]:
    """Run the decoder with gold inputs; step t scores target_ids[:, t+1].

    Returns each step's [B] probabilities of the gold ids under the
    decode_step mixture, which nn.tensor.gold_mixture_prob computes without
    building the distribution over the extended vocabulary."""
    target_ids = np.asarray(target_ids)
    if target_ids.size and target_ids.max() >= memory.extended_size:
        raise T.ShapeError(f"target id {target_ids.max()} is outside the "
                           f"extended vocabulary of {memory.extended_size}")
    out_w, out_b = params[f"{prefix}.out.W"], params[f"{prefix}.out.b"]
    state = init_decoder_state(params, prefix, memory.init_source)
    steps = []
    for t in range(int(np.max(target_lengths)) - 1):
        u, alpha, p_g, state = decoder_state_step(params, prefix, target_ids[:, t],
                                                  state, memory)
        steps.append(T.gold_mixture_prob(u, out_w, out_b, alpha, p_g,
                                         memory.copy_ids, target_ids[:, t + 1]))
    return steps


def sequence_nll(steps: list[Tensor], target_ids: np.ndarray,
                 target_lengths: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the per-step gold probabilities of
    teacher_forced_steps, one step per target after BOS: per-sample mean
    over its own real steps, then mean over the batch. Zero-probability
    targets are floored at PROB_FLOOR, and a warning is logged with their
    count."""
    n_steps = len(steps)
    if np.shape(target_ids)[1] != n_steps + 1:
        raise T.ShapeError(f"{n_steps} steps for targets of width "
                           f"{np.shape(target_ids)[1]}")
    picked = T.stack(steps, axis=1)
    valid = length_mask(np.asarray(target_lengths) - 1, n_steps)
    floored = int(np.sum((picked.data < PROB_FLOOR) & valid))
    if floored:
        log.warning("floored %d zero-probability target tokens", floored)
    logp = T.log(T.clamp_min(picked, PROB_FLOOR))
    weights = valid / (np.asarray(target_lengths, dtype=np.float64) - 1.0)[:, None]
    per_sample = T.sum_(T.mul(logp, weights), axis=1)
    return T.mul(T.mean(per_sample), -1.0)


# -- generation ---------------------------------------------------------------


@dataclass
class BeamHypothesis:
    ids: list[int]        # generated ids, extended vocabulary, no BOS/EOS
    score: float          # length-normalized log probability


def _reorder_state(state: DecoderState, rows: list[int]) -> DecoderState:
    """Decoder state of the surviving hypotheses: row i continues ``rows[i]``."""
    def take(t: Tensor) -> Tensor:
        return Tensor(t.data[rows])

    return DecoderState(states=[(take(h), take(c)) for h, c in state.states],
                        s_tilde=take(state.s_tilde))


def _best_candidates(lp: np.ndarray, logp: np.ndarray, rank: np.ndarray,
                     beam: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, tokens and totals of the ``beam`` best continuations of one
    sample's live hypotheses, best first. Row r's total for token t is
    ``logp[r] + lp[r, t]``; higher totals come first, then the lower
    ``rank[r]``, then the lower token.

    With ``rank`` the order of the hypotheses' ids, this is the order of the
    key ``(-total, ids + (t,))``: live hypotheses are distinct and of equal
    length. Each of the first ``beam`` is also among its row's ``beam``
    best, so the result equals taking each row's best by a stable argsort
    and sorting those candidates by that key."""
    total = (logp[:, None] + lp).ravel()
    if beam < total.size:
        kth = total.size - beam
        idx = np.flatnonzero(total >= np.partition(total, kth)[kth])
    else:
        idx = np.arange(total.size)
    rows, toks = np.divmod(idx, lp.shape[1])
    order = np.lexsort((toks, rank[rows], -total[idx]))[:beam]
    return rows[order], toks[order], total[idx[order]]


def beam_search_group(params: ParameterSet, prefix: str, memories: list[DecodeMemory],
                      *, beam: int, max_len: int, length_penalty: float = 0.7
                      ) -> list[BeamHypothesis]:
    """Beam search for each sample of a group, one hypothesis per sample.

    The live hypotheses of every sample are the rows of one decoder batch,
    sample by sample, reordered by back-pointer after each step; a sample
    whose hypotheses have all finished leaves the batch. Nothing is
    recorded for backward. Each row is computed exactly as a batch of one
    would compute it (see decode_step), so every sample's result equals
    decoding each of its hypotheses on its own, bit for bit, whatever else
    shares the group.

    Scores are summed log probabilities normalized by length**length_penalty
    at finishing time; a finished hypothesis keeps only (score, ids), and a
    sample's result is its best score, a tie going to the larger negated ids.
    Candidate ordering breaks ties toward lower token ids, which makes
    beam=1 reproduce greedy decoding exactly.
    """
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    if any(m.enc.mask.shape[0] != 1 for m in memories):
        raise T.ShapeError("a decode memory holds one sample")
    # per sample: live (ids, log probability) and finished (score, ids) pairs
    live: list[list[tuple[tuple[int, ...], float]]] = [[((), 0.0)] for _ in memories]
    done: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in memories]
    with T.no_grad(), T.batch_invariant():
        state = init_decoder_state(params, prefix,
                                   T.concat([m.init_source for m in memories], axis=0))
        for _ in range(max_len):
            active = [i for i, hyps in enumerate(live) if hyps]
            if not active:
                break
            y = np.array([ids[-1] if ids else BOS for i in active for ids, _ in live[i]])
            lps, state = decode_step(params, prefix, y, state,
                                     [memories[i] for i in active],
                                     [len(live[i]) for i in active])
            kept, lo = [], 0
            for i, lp in zip(active, lps):
                hyps = live[i]
                logp = np.array([total for _, total in hyps])
                rank = np.empty(len(hyps), dtype=np.intp)
                rank[sorted(range(len(hyps)), key=lambda r: hyps[r][0])] = range(len(hyps))
                live[i] = []
                for row, tok, total in zip(*(a.tolist() for a in
                                             _best_candidates(lp, logp, rank, beam))):
                    ids = hyps[row][0]
                    if tok == EOS:
                        done[i].append((total / (len(ids) + 1) ** length_penalty, ids))
                    else:
                        live[i].append((ids + (tok,), total))
                        kept.append(lo + row)
                lo += len(hyps)
            del lps, lp   # free this step's log probabilities before the next step's
            state = _reorder_state(state, kept)
    results = []
    for hyps, finished in zip(live, done):
        for ids, logp in hyps:
            finished.append((logp / max(len(ids), 1) ** length_penalty, ids))
        score, ids = max(finished, key=lambda d: (d[0], tuple(-i for i in d[1])))
        results.append(BeamHypothesis(ids=list(ids), score=score))
    return results


def beam_search(params: ParameterSet, prefix: str, memory: DecodeMemory, *,
                beam: int, max_len: int, length_penalty: float = 0.7) -> BeamHypothesis:
    """Beam search for a single sample: beam_search_group over its memory
    alone."""
    return beam_search_group(params, prefix, [memory], beam=beam, max_len=max_len,
                             length_penalty=length_penalty)[0]
