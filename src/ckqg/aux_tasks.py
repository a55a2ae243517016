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
from .qg_model import (PROB_FLOOR, EncoderOutput, KnowledgeMemory,
                       OutputDistribution, make_memory, teacher_forced_steps)

N_RELATIONS = len(RELATIONS)
SEP_INDEX = N_RELATIONS  # row of the separator in the special embedding table


def _encode_rows(params: ParameterSet, prefix: str, head_ids: np.ndarray,
                 head_lengths: np.ndarray, suffixes: list[list[int]],
                 drop_rate: float, rng: np.random.Generator | None
                 ) -> tuple[Tensor, np.ndarray, Tensor, Tensor]:
    """Pack [head; suffix] rows, pad, embed and run the biLSTM under ``prefix``.

    Ids at or above the word vocabulary size select the special
    (relation/sep) rows. Returns (H, row mask, fw_final, bw_final)."""
    rows = [head_ids[i, :n].tolist() + suffix
            for i, (n, suffix) in enumerate(zip(head_lengths, suffixes))]
    ids, lengths = pad_rows(rows)
    table = T.concat([params["emb.word"], params["know.special"]], axis=0)
    out, fw_fin, bw_fin = bilstm(params, prefix, T.embedding(table, ids), lengths,
                                 drop_rate, rng)
    return out, length_mask(lengths, out.shape[1]), fw_fin, bw_fin


def encode_head_tail(params: ParameterSet, head_ids: np.ndarray,
                     head_lengths: np.ndarray, tail_ids: np.ndarray,
                     tail_lengths: np.ndarray, *, drop_rate: float = 0.0,
                     rng: np.random.Generator | None = None
                     ) -> tuple[Tensor, np.ndarray]:
    """Encode [head; separator; tail] rows; row count is lh + 1 + lt."""
    if np.any(np.asarray(head_lengths) < 1) or np.any(np.asarray(tail_lengths) < 1):
        raise ValidationError("empty concept in head-tail encoder")
    sep = params["emb.word"].shape[0] + SEP_INDEX
    tails = [[sep] + tail_ids[i, :n].tolist() for i, n in enumerate(tail_lengths)]
    out, mask, _, _ = _encode_rows(params, "ht_enc", head_ids, head_lengths, tails,
                                   drop_rate, rng)
    return out, mask


def encode_head_relation(params: ParameterSet, head_ids: np.ndarray,
                         head_lengths: np.ndarray, relation_ids: np.ndarray, *,
                         drop_rate: float = 0.0,
                         rng: np.random.Generator | None = None
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
                                             relations, drop_rate, rng)
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


def encode_triples(params: ParameterSet, batch, *, drop_rate: float = 0.0,
                   rng: np.random.Generator | None = None) -> TripleEncoding:
    if not batch.has_triples:
        raise ValidationError("batch carries no triples")
    r, r_mask = encode_head_tail(params, batch.head_ids, batch.head_lengths,
                                 batch.tail_ids, batch.tail_lengths,
                                 drop_rate=drop_rate, rng=rng)
    t, t_mask, t_final = encode_head_relation(params, batch.head_ids,
                                              batch.head_lengths,
                                              batch.relation_ids,
                                              drop_rate=drop_rate, rng=rng)
    k = T.concat([t, r], axis=1)
    k_mask = np.concatenate([t_mask, r_mask], axis=1)
    return TripleEncoding(r=r, r_mask=r_mask, t=t, t_mask=t_mask,
                          k=k, k_mask=k_mask, t_final=t_final)


# -- relation classification -------------------------------------------------


@dataclass
class CoattentionOutput:
    a_h: Tensor       # [B, Lp, Lr] passage positions attending over the triple
    a_r: Tensor       # [B, Lr, Lp] triple rows attending over the passage
    r_hat: Tensor     # [B, Lr, 4d] co-dependent triple context


def coattend(r: Tensor, r_mask: np.ndarray, h_hat: Tensor,
             h_mask: np.ndarray) -> CoattentionOutput:
    """Affinity-shared bidirectional attention between triple rows and the
    self-matched passage; each triple row gathers [passage; triple-summary]
    pairs weighted by its passage attention."""
    aff = T.matmul(r, T.swapaxes(h_hat, -1, -2))          # [B, Lr, Lp]
    a_r = T.softmax(aff, axis=-1, mask=h_mask[:, None, :])
    a_h = T.softmax(T.swapaxes(aff, -1, -2), axis=-1, mask=r_mask[:, None, :])
    ctx = T.matmul(a_h, r)                                # [B, Lp, 2d]
    stacked = T.concat([h_hat, ctx], axis=-1)             # [B, Lp, 4d]
    r_hat = T.matmul(a_r, stacked)                        # [B, Lr, 4d]
    return CoattentionOutput(a_h=a_h, a_r=a_r, r_hat=r_hat)


@dataclass
class RelationPrediction:
    y_r: Tensor           # [B, 6]
    labels: np.ndarray    # [B] argmax ids


def classify_relation(params: ParameterSet, r_hat: Tensor,
                      r_mask: np.ndarray) -> RelationPrediction:
    """Masked mean pool over triple rows, one affine layer, softmax."""
    nb = r_hat.shape[0]
    counts = r_mask.sum(axis=1, keepdims=True).astype(np.float64)
    weights = (r_mask / counts)[:, None, :]               # [B, 1, Lr]
    pooled = T.reshape(T.matmul(weights, r_hat), (nb, r_hat.shape[-1]))
    y_r = T.softmax(linear(params, "rc.out", pooled), axis=-1)
    return RelationPrediction(y_r=y_r, labels=np.argmax(y_r.data, axis=-1))


def rc_loss(pred: RelationPrediction, gold: np.ndarray) -> Tensor:
    """Negative log-probability of the gold relation label, mean over the batch."""
    picked = T.gather_last(pred.y_r, gold)
    return T.mul(T.mean(T.log(T.clamp_min(picked, PROB_FLOOR))), -1.0)


def rc_forward(params: ParameterSet, enc: EncoderOutput, trip: TripleEncoding
               ) -> tuple[CoattentionOutput, RelationPrediction]:
    co = coattend(trip.r, trip.r_mask, enc.h_hat, enc.mask)
    return co, classify_relation(params, co.r_hat, trip.r_mask)


# -- tail generation ----------------------------------------------------------


def unified_memory(params: ParameterSet, trip: TripleEncoding) -> KnowledgeMemory:
    """Full triple memory for the question decoder."""
    return make_memory(params, "know.Wq", trip.k, trip.k_mask)


def tg_memory(params: ParameterSet, trip: TripleEncoding) -> KnowledgeMemory:
    """Head-relation memory for the tail decoder."""
    return make_memory(params, "tg.Wk", trip.t, trip.t_mask)


def tg_teacher_steps(params: ParameterSet, enc: EncoderOutput,
                     trip: TripleEncoding, batch, *, drop_rate: float = 0.0,
                     rng: np.random.Generator | None = None
                     ) -> list[OutputDistribution]:
    return teacher_forced_steps(params, "tg.dec", enc, tg_memory(params, trip),
                                batch.tail_gen_ids, batch.tail_gen_lengths,
                                batch.copy_ids, batch.extended_size,
                                init_source=trip.t_final, drop_rate=drop_rate,
                                rng=rng)
