"""Question generation network.

Feature-enriched biLSTM encoder with gated self-matching over the passage,
an attentional LSTM decoder with maxout readout, and a pointer-style copy
path over an extended per-batch vocabulary. The decoder is parametrized by
a name prefix so the tail-generation head can reuse the same step function
with its own weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import BOS, EOS, UNK
from .nn import tensor as T
from .nn.layers import bilstm, linear, stacked_lstm_step
from .nn.params import ParameterSet
from .nn.tensor import Tensor, length_mask

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


def clamp_to_vocab(ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """Map extended-vocabulary ids back to UNK for embedding lookups."""
    ids = np.asarray(ids)
    return np.where(ids >= vocab_size, UNK, ids)


# -- encoder ----------------------------------------------------------------


@dataclass
class EncoderOutput:
    h: Tensor            # [B, Lp, 2d] contextual states
    h_hat: Tensor        # [B, Lp, 2d] gated self-matched states
    f: Tensor            # [B, Lp, 2d] self-match summaries (diagnostic)
    g: Tensor            # [B, Lp, 1] gate values (diagnostic)
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


def encode_passage(params: ParameterSet, batch, *, drop_rate: float = 0.0,
                   rng: np.random.Generator | None = None) -> EncoderOutput:
    e = embed_source(params, batch)
    h, _, bw_final = bilstm(params, "enc", e, batch.passage_lengths, drop_rate, rng)
    mask = length_mask(batch.passage_lengths, h.shape[1])
    f, g = self_match(params, h, mask)
    h_hat = T.add(T.mul(g, f), T.mul(1.0 - g, h))
    proj = T.matmul(h_hat, params["attn.Wh"])
    return EncoderOutput(h=h, h_hat=h_hat, f=f, g=g, mask=mask, proj=proj,
                         bw_final=bw_final)


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
class DecoderState:
    states: list[tuple[Tensor, Tensor]]   # per-layer (h, c)
    s_tilde: Tensor                       # [B, d] readout feed for the next step
    s: Tensor | None = None               # top hidden after the last step
    c: Tensor | None = None               # passage context
    alpha: Tensor | None = None           # [B, Lp] passage attention
    k: Tensor | None = None               # knowledge context, zeros when absent
    p_g: Tensor | None = None             # [B, 1] generate-vs-copy gate


@dataclass
class OutputDistribution:
    p_vocab: Tensor      # [B, V]
    p_copy: Tensor       # [B, extended]
    p: Tensor            # [B, extended] mixture


def init_decoder_state(params: ParameterSet, prefix: str, source: Tensor) -> DecoderState:
    """Seed the decoder from an encoder summary (one projection per layer);
    cells and the first readout feed start at zero."""
    states = []
    for k in range(params.layers):
        h0 = T.tanh(linear(params, f"{prefix}.init.l{k}", source))
        states.append((h0, Tensor(np.zeros(h0.shape))))
    return DecoderState(states=states, s_tilde=Tensor(np.zeros(h0.shape)))


def _attend(proj: Tensor, query: Tensor, mask: np.ndarray) -> Tensor:
    nb, width, d = query.shape[0], *proj.shape[1:]
    scores = T.matmul(proj, T.reshape(query, (nb, d, 1)))
    return T.softmax(T.reshape(scores, (nb, width)), axis=-1, mask=mask)


def _weighted_rows(alpha: Tensor, rows: Tensor) -> Tensor:
    nb, width = alpha.shape
    ctx = T.matmul(T.reshape(alpha, (nb, 1, width)), rows)
    return T.reshape(ctx, (nb, rows.shape[-1]))


def copy_distribution(alpha: Tensor, copy_ids: np.ndarray, extended_size: int) -> Tensor:
    """Aggregate attention mass per extended-vocabulary id.

    Pad positions carry exactly zero attention, so the pad bucket stays empty.
    One sample's ``copy_ids`` broadcast against every row of ``alpha``.
    """
    return T.scatter_sum(alpha, np.broadcast_to(copy_ids, alpha.shape), extended_size)


def decode_step(params: ParameterSet, prefix: str, y_prev: np.ndarray,
                state: DecoderState, enc: EncoderOutput,
                kmem: KnowledgeMemory | None, copy_ids: np.ndarray,
                extended_size: int, *, drop_rate: float = 0.0,
                rng: np.random.Generator | None = None
                ) -> tuple[OutputDistribution, DecoderState]:
    """One decoder step over a batch.

    The blend terms are summed in fixed order c, k, s so dropping the k term
    is numerically identical to a zeroed k-slice.
    """
    vocab_size = params["emb.word"].shape[0]
    emb = T.embedding(params["emb.word"], clamp_to_vocab(y_prev, vocab_size))
    x = T.concat([emb, state.s_tilde], axis=-1)
    s, new_states = stacked_lstm_step(params, f"{prefix}.cell", x, state.states,
                                      drop_rate, rng)
    nb, hidden = s.shape

    alpha = _attend(enc.proj, s, enc.mask)
    c = _weighted_rows(alpha, enc.h_hat)

    pre = T.matmul(c, params[f"{prefix}.blend.c.W"])
    if kmem is not None:
        beta = _attend(kmem.proj, s, kmem.mask)
        k = _weighted_rows(beta, kmem.rows)
        pre = T.add(pre, T.matmul(k, params[f"{prefix}.blend.k.W"]))
    else:
        k = Tensor(np.zeros((nb, 2 * hidden)))
    pre = T.add(pre, T.matmul(s, params[f"{prefix}.blend.s.W"]))
    s_tilde = T.tanh(T.add(pre, params[f"{prefix}.blend.b"]))

    z = T.dropout(T.concat([c, s], axis=-1), drop_rate, rng)
    u = T.maxout(T.tanh(linear(params, f"{prefix}.readout", z)))
    p_vocab = T.softmax(linear(params, f"{prefix}.out", u), axis=-1)

    p_g = T.sigmoid(linear(params, f"{prefix}.copy", T.concat([c, s, emb], axis=-1)))
    p_copy = copy_distribution(alpha, copy_ids, extended_size)
    if extended_size > vocab_size:
        tail = Tensor(np.zeros((nb, extended_size - vocab_size)))
        p_vocab_ext = T.concat([p_vocab, tail], axis=-1)
    else:
        p_vocab_ext = p_vocab
    p = T.add(T.mul(p_vocab_ext, p_g), T.mul(p_copy, 1.0 - p_g))

    out = OutputDistribution(p_vocab=p_vocab, p_copy=p_copy, p=p)
    new_state = DecoderState(states=new_states, s_tilde=s_tilde, s=s, c=c,
                             alpha=alpha, k=k, p_g=p_g)
    return out, new_state


# -- teacher forcing and loss -------------------------------------------------


def teacher_forced_steps(params: ParameterSet, prefix: str, enc: EncoderOutput,
                         kmem: KnowledgeMemory | None, target_ids: np.ndarray,
                         target_lengths: np.ndarray, copy_ids: np.ndarray,
                         extended_size: int, *, init_source: Tensor,
                         drop_rate: float = 0.0,
                         rng: np.random.Generator | None = None
                         ) -> list[OutputDistribution]:
    """Run the decoder with gold inputs; step t predicts target_ids[:, t+1]."""
    state = init_decoder_state(params, prefix, init_source)
    steps = []
    for t in range(int(np.max(target_lengths)) - 1):
        out, state = decode_step(params, prefix, target_ids[:, t], state, enc,
                                 kmem, copy_ids, extended_size,
                                 drop_rate=drop_rate, rng=rng)
        steps.append(out)
    return steps


def sequence_nll(steps: list[OutputDistribution], target_ids: np.ndarray,
                 target_lengths: np.ndarray) -> Tensor:
    """Mean negative log-likelihood: per-sample mean over its own real steps,
    then mean over the batch. Zero-probability targets are floored at
    PROB_FLOOR, and a warning is logged with their count."""
    n_steps = len(steps)
    picked = T.stack([T.gather_last(steps[t].p, target_ids[:, t + 1])
                      for t in range(n_steps)], axis=1)
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
    logprob: float        # raw summed log probability


def _reorder_state(state: DecoderState, rows: list[int]) -> DecoderState:
    """Decoder state of the surviving hypotheses: row i continues ``rows[i]``."""
    def take(t: Tensor) -> Tensor:
        return Tensor(t.data[rows])

    return DecoderState(states=[(take(h), take(c)) for h, c in state.states],
                        s_tilde=take(state.s_tilde))


def _top_tokens(lp: np.ndarray, beam: int) -> np.ndarray:
    """``np.argsort(-lp, kind="stable")[:beam]`` without sorting the whole row:
    every value above the beam-th largest is in, and ties at it go to the
    lowest ids."""
    n = lp.shape[0]
    if beam >= n:
        return np.argsort(-lp, kind="stable")
    threshold = np.partition(lp, n - beam)[n - beam]
    idx = np.flatnonzero(lp >= threshold)
    return idx[np.argsort(-lp[idx], kind="stable")][:beam]


def beam_search(params: ParameterSet, prefix: str, enc: EncoderOutput,
                kmem: KnowledgeMemory | None, copy_ids: np.ndarray,
                extended_size: int, *, beam: int, max_len: int,
                length_penalty: float = 0.7) -> BeamHypothesis:
    """Beam search for a single sample.

    The live hypotheses are the rows of one decoder batch, reordered by
    back-pointer after each step, and nothing is recorded for backward. The
    sample's encoder output, knowledge memory and copy ids are read by
    broadcasting, so only the decoder state has a row per hypothesis. Each
    row is computed exactly as a batch of one would compute it (see
    nn.tensor.row_by_row), so the result equals decoding each hypothesis on
    its own, bit for bit.

    Scores are summed log probabilities normalized by length**length_penalty
    at finishing time; candidate ordering breaks ties toward lower token ids,
    which makes beam=1 reproduce greedy decoding exactly.
    """
    if enc.mask.shape[0] != 1:
        raise T.ShapeError("beam_search runs one sample at a time")
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    live: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    done: list[tuple[float, float, tuple[int, ...]]] = []
    with T.no_grad(), T.row_by_row():
        state = init_decoder_state(params, prefix, enc.bw_final)
        for _ in range(max_len):
            if not live:
                break
            y = np.array([ids[-1] if ids else BOS for ids, _ in live])
            out, state = decode_step(params, prefix, y, state, enc, kmem,
                                     copy_ids, extended_size)
            lp = np.log(np.maximum(out.p.data, PROB_FLOOR))
            cands = []
            for row, (ids, logp) in enumerate(live):
                for tok in _top_tokens(lp[row], beam):
                    cands.append((logp + float(lp[row, tok]), ids, int(tok), row))
            cands.sort(key=lambda cand: (-cand[0], cand[1] + (cand[2],)))
            live, rows = [], []
            for total, ids, tok, row in cands[:beam]:
                if tok == EOS:
                    norm = total / (len(ids) + 1) ** length_penalty
                    done.append((norm, total, ids))
                else:
                    live.append((ids + (tok,), total))
                    rows.append(row)
            state = _reorder_state(state, rows)
    for ids, logp in live:
        done.append((logp / max(len(ids), 1) ** length_penalty, logp, ids))
    norm, raw, ids = max(done, key=lambda d: (d[0], tuple(-i for i in d[2])))
    return BeamHypothesis(ids=list(ids), score=norm, logprob=raw)
