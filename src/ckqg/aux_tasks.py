"""Auxiliary training heads over knowledge triples.

Relation classification reads a co-attended view of the (head, tail) pair
against the passage; tail generation decodes the tail concept from
(head, relation) with dual attention over the passage and the triple
encoding. Both supply the knowledge memory the question decoder attends to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ValidationError, pad_rows
from .kb_extract import RELATIONS
from .nn import tensor as T
from .nn.layers import bilstm, linear
from .nn.params import ParameterSet
from .nn.tensor import Tensor, length_mask
from .qg_model import (PROB_FLOOR, DecodeMemory, EncoderOutput, KnowledgeMemory,
                       make_memory, teacher_forced_steps)

N_RELATIONS = len(RELATIONS)
SEP_INDEX = N_RELATIONS  # row of the separator in the special embedding table


def _encode_rows(params: ParameterSet, prefix: str, head_ids: np.ndarray,
                 head_lengths: np.ndarray, suffixes: list[list[int]]
                 ) -> tuple[Tensor, np.ndarray, Tensor, Tensor]:
    """Pack [head; suffix] rows, pad, embed and run the biLSTM under ``prefix``.

    Ids at or above the word vocabulary size select the special
    (relation/sep) rows. Returns (H, row mask, fw_final, bw_final)."""
    rows = [head_ids[i, :n].tolist() + suffix
            for i, (n, suffix) in enumerate(zip(head_lengths, suffixes))]
    ids, lengths = pad_rows(rows)
    table = T.concat([params["emb.word"], params["know.special"]], axis=0)
    out, fw_fin, bw_fin = bilstm(params, prefix, T.embedding(table, ids), lengths)
    return out, length_mask(lengths, out.shape[1]), fw_fin, bw_fin


def encode_head_tail(params: ParameterSet, head_ids: np.ndarray,
                     head_lengths: np.ndarray, tail_ids: np.ndarray,
                     tail_lengths: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Encode [head; separator; tail] rows; row count is lh + 1 + lt."""
    if np.any(np.asarray(head_lengths) < 1) or np.any(np.asarray(tail_lengths) < 1):
        raise ValidationError("empty concept in head-tail encoder")
    sep = params["emb.word"].shape[0] + SEP_INDEX
    tails = [[sep] + tail_ids[i, :n].tolist() for i, n in enumerate(tail_lengths)]
    out, mask, _, _ = _encode_rows(params, "ht_enc", head_ids, head_lengths, tails)
    return out, mask


def encode_head_relation(params: ParameterSet, head_ids: np.ndarray,
                         head_lengths: np.ndarray, relation_ids: np.ndarray
                         ) -> tuple[Tensor, np.ndarray, Tensor]:
    """Encode [head; relation-token] rows; also returns the concatenated
    final states used to seed the tail decoder."""
    if np.any(np.asarray(head_lengths) < 1):
        raise ValidationError("empty concept in head-relation encoder")
    relation_ids = np.asarray(relation_ids)
    if np.any((relation_ids < 0) | (relation_ids >= N_RELATIONS)):
        raise ValidationError(f"relation id out of range 0..{N_RELATIONS - 1}")
    vocab_size = params["emb.word"].shape[0]
    relations = [[vocab_size + int(r)] for r in relation_ids]
    out, mask, fw_fin, bw_fin = _encode_rows(params, "hr_enc", head_ids, head_lengths,
                                             relations)
    return out, mask, T.concat([fw_fin, bw_fin], axis=-1)


@dataclass
class TripleEncoding:
    r: Tensor             # [B, Lr, 2d] head-tail rows
    r_mask: np.ndarray
    t: Tensor             # [B, Lt, 2d] head-relation rows
    t_mask: np.ndarray
    k: Tensor             # [B, Lt+Lr, 2d] full triple memory [T; R]
    k_mask: np.ndarray
    t_final: Tensor       # [B, 2d] tail-decoder seed


def encode_triples(params: ParameterSet, batch) -> TripleEncoding:
    if not batch.has_triples:
        raise ValidationError("batch carries no triples")
    r, r_mask = encode_head_tail(params, batch.head_ids, batch.head_lengths,
                                 batch.tail_ids, batch.tail_lengths)
    t, t_mask, t_final = encode_head_relation(params, batch.head_ids,
                                              batch.head_lengths,
                                              batch.relation_ids)
    k = T.concat([t, r], axis=1)
    k_mask = np.concatenate([t_mask, r_mask], axis=1)
    return TripleEncoding(r=r, r_mask=r_mask, t=t, t_mask=t_mask,
                          k=k, k_mask=k_mask, t_final=t_final)


# -- relation classification -------------------------------------------------


def coattend(r: Tensor, r_mask: np.ndarray, h_hat: Tensor,
             h_mask: np.ndarray) -> Tensor:
    """Affinity-shared bidirectional attention between triple rows and the
    self-matched passage; returns the co-dependent triple context r_hat
    [B, Lr, 4d]. Each triple row gathers [passage; triple-summary] pairs
    weighted by its passage attention."""
    aff = T.matmul(r, T.swapaxes(h_hat, -1, -2))          # [B, Lr, Lp]
    a_r = T.softmax(aff, axis=-1, mask=h_mask[:, None, :])
    a_h = T.softmax(T.swapaxes(aff, -1, -2), axis=-1, mask=r_mask[:, None, :])
    ctx = T.matmul(a_h, r)                                # [B, Lp, 2d]
    stacked = T.concat([h_hat, ctx], axis=-1)             # [B, Lp, 4d]
    return T.matmul(a_r, stacked)                         # [B, Lr, 4d]


def classify_relation(params: ParameterSet, r_hat: Tensor,
                      r_mask: np.ndarray) -> Tensor:
    """Relation probabilities y_r [B, 6]: masked mean pool over triple rows,
    one affine layer, softmax. A relation is read as their argmax."""
    nb = r_hat.shape[0]
    counts = r_mask.sum(axis=1, keepdims=True).astype(np.float64)
    weights = (r_mask / counts)[:, None, :]               # [B, 1, Lr]
    pooled = T.reshape(T.matmul(weights, r_hat), (nb, r_hat.shape[-1]))
    return T.softmax(linear(params, "rc.out", pooled), axis=-1)


def rc_loss(y_r: Tensor, gold: np.ndarray) -> Tensor:
    """Negative log-probability of the gold relation label, mean over the batch."""
    picked = T.gather_last(y_r, gold)
    return T.mul(T.mean(T.log(T.clamp_min(picked, PROB_FLOOR))), -1.0)


def rc_forward(params: ParameterSet, enc: EncoderOutput, trip: TripleEncoding
               ) -> Tensor:
    """Relation probabilities y_r [B, 6] of the triple rows co-attended
    against the self-matched passage."""
    r_hat = coattend(trip.r, trip.r_mask, enc.h_hat, enc.mask)
    return classify_relation(params, r_hat, trip.r_mask)


# -- tail generation ----------------------------------------------------------


def unified_memory(params: ParameterSet, trip: TripleEncoding) -> KnowledgeMemory:
    """Full triple memory for the question decoder."""
    return make_memory(params, "know.Wq", trip.k, trip.k_mask)


def unified_memories(params: ParameterSet, batch) -> list[KnowledgeMemory]:
    """Each sample's unified_memory at its own width, from one encode_triples
    pass over the batch: sample i's rows are ``[t_i[:lh+1]; r_i[:lh+1+lt]]``
    for its head and tail lengths lh and lt. Inside ``T.batch_invariant()``
    every value equals, bit for bit, that of unified_memory over a batch of
    the sample alone. The slices start no tape: this serves decoding."""
    trip = encode_triples(params, batch)
    memories = []
    for i, (lh, lt) in enumerate(zip(batch.head_lengths.tolist(),
                                     batch.tail_lengths.tolist())):
        k = np.concatenate([trip.t.data[i, :lh + 1], trip.r.data[i, :lh + 1 + lt]])
        memories.append(make_memory(params, "know.Wq", Tensor(k[None]),
                                    np.ones((1, len(k)), bool)))
    return memories


def tg_memory(params: ParameterSet, trip: TripleEncoding) -> KnowledgeMemory:
    """Head-relation memory for the tail decoder."""
    return make_memory(params, "tg.Wk", trip.t, trip.t_mask)


def tg_teacher_steps(params: ParameterSet, enc: EncoderOutput,
                     trip: TripleEncoding, batch) -> list[Tensor]:
    """Per-step gold probabilities of the tail decoder under teacher forcing."""
    memory = DecodeMemory(enc, tg_memory(params, trip), batch.copy_ids,
                          batch.extended_size, trip.t_final)
    return teacher_forced_steps(params, "tg.dec", memory, batch.tail_gen_ids,
                                batch.tail_gen_lengths)
