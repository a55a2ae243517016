"""Multi-task training loop with alternating knowledge phases.

The question decoder always trains; on triple-equipped batches the relation
classifier and tail decoder add their losses and the decoder attends over
the triple memory. Training alternates fixed-length spans of equipped and
plain batches, and during plain spans the knowledge parameter group is
frozen together with its optimizer moments.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import aux_tasks, metrics, qg_model
from .config import Config
from .corpus import (Batch, TagVocab, TrainingSample, ValidationError,
                     Vocabulary, build_tag_vocabs, build_vocab, encode_batch)
from .nn import tensor as T
from .nn.checkpoint import save_checkpoint
from .nn.optim import Adam
from .nn.params import GROUPS, ParameterSet

log = logging.getLogger(__name__)

EQUIPPED = "Equipped"
PURE = "Pure"


class TrainingError(RuntimeError):
    """Optimization cannot continue (non-finite loss or bad setup)."""


# -- losses -------------------------------------------------------------------


@dataclass
class LossBundle:
    l_q: T.Tensor
    l_r: T.Tensor
    l_t: T.Tensor
    l: T.Tensor

    def values(self) -> tuple[float, float, float, float]:
        return (float(self.l_q.data), float(self.l_r.data),
                float(self.l_t.data), float(self.l.data))


def _zero() -> T.Tensor:
    return T.Tensor(np.zeros(()))


def _bundle(l_q: T.Tensor, l_r: T.Tensor, l_t: T.Tensor) -> LossBundle:
    # summation order is part of the contract: adding exact zeros for absent
    # components keeps the total bitwise equal to l_q on plain batches
    return LossBundle(l_q, l_r, l_t, T.add(T.add(l_q, l_r), l_t))


def unified_forward(params: ParameterSet, batch: Batch, *,
                    drop_rate: float = 0.0,
                    rng: np.random.Generator | None = None,
                    no_rc: bool = False, no_tg: bool = False) -> LossBundle:
    """Forward pass for a triple-equipped batch: question loss with attention
    over the triple memory, plus relation and tail losses unless ablated."""
    kw = dict(drop_rate=drop_rate, rng=rng)
    enc = qg_model.encode_passage(params, batch, **kw)
    trip = aux_tasks.encode_triples(params, batch, **kw)
    kmem = aux_tasks.unified_memory(params, trip)
    steps = qg_model.teacher_forced_steps(
        params, "dec", enc, kmem, batch.question_ids, batch.question_lengths,
        batch.copy_ids, batch.extended_size, init_source=enc.bw_final, **kw)
    l_q = qg_model.sequence_nll(steps, batch.question_ids, batch.question_lengths)
    if no_rc:
        l_r = _zero()
    else:
        _, pred = aux_tasks.rc_forward(params, enc, trip)
        l_r = aux_tasks.rc_loss(pred, batch.relation_ids)
    if no_tg:
        l_t = _zero()
    else:
        tg_steps = aux_tasks.tg_teacher_steps(params, enc, trip, batch, **kw)
        l_t = qg_model.sequence_nll(tg_steps, batch.tail_gen_ids,
                                    batch.tail_gen_lengths)
    return _bundle(l_q, l_r, l_t)


def pure_forward(params: ParameterSet, batch: Batch, *, drop_rate: float = 0.0,
                 rng: np.random.Generator | None = None) -> LossBundle:
    """Question-only forward: no knowledge memory, so no knowledge parameter
    enters the graph and the total equals the question loss exactly."""
    kw = dict(drop_rate=drop_rate, rng=rng)
    enc = qg_model.encode_passage(params, batch, **kw)
    steps = qg_model.teacher_forced_steps(
        params, "dec", enc, None, batch.question_ids, batch.question_lengths,
        batch.copy_ids, batch.extended_size, init_source=enc.bw_final, **kw)
    l_q = qg_model.sequence_nll(steps, batch.question_ids, batch.question_lengths)
    return _bundle(l_q, _zero(), _zero())


# -- schedule -----------------------------------------------------------------


@dataclass
class ITFConfig:
    n: int
    cycles: int

    def validate(self) -> None:
        if self.n < 1 or self.cycles < 1:
            raise ValueError(f"phase length and cycle count must be >= 1, "
                             f"got n={self.n} cycles={self.cycles}")


def itf_schedule(cfg: ITFConfig) -> list[str]:
    """Phase per step: n equipped steps then n plain steps, repeated."""
    cfg.validate()
    return ([EQUIPPED] * cfg.n + [PURE] * cfg.n) * cfg.cycles


def freeze_mask(phase: str) -> dict[str, bool]:
    """Group name -> trainable. Plain-data spans freeze the knowledge group."""
    if phase not in (EQUIPPED, PURE):
        raise ValueError(f"unknown phase {phase!r}")
    return {"qg_core": True, "knowledge": phase == EQUIPPED}


def _trainable_names(params: ParameterSet, phase: str) -> set[str] | None:
    mask = freeze_mask(phase)
    if all(mask.values()):
        return None
    return {n for g, ok in mask.items() if ok for n in params.names(g)}


# -- assembly -----------------------------------------------------------------


def build_parameters(config: Config, vocab: Vocabulary,
                     tag_vocabs: dict[str, TagVocab],
                     rng: np.random.Generator) -> ParameterSet:
    params = ParameterSet()
    qg_model.init_qg_parameters(
        params, rng, vocab_size=len(vocab), emb_dim=config.emb_dim,
        feat_dim=config.feat_dim, hidden=config.hidden_size,
        layers=config.layers, n_bio=len(tag_vocabs["bio"]),
        n_pos=len(tag_vocabs["pos"]), n_ner=len(tag_vocabs["ner"]))
    aux_tasks.init_aux_parameters(
        params, rng, vocab_size=len(vocab), emb_dim=config.emb_dim,
        hidden=config.hidden_size, layers=config.layers)
    return params


def average_checkpoints(states: list[dict[str, np.ndarray]]
                        ) -> dict[str, np.ndarray]:
    """Arithmetic mean per parameter.

    Computed as first + mean(deltas from first), summed in list order.
    Neighboring snapshots sit close together, so the deltas are small and
    the recentred form loses less precision than a plain sum; identical
    inputs come back bit-for-bit unchanged.
    """
    if not states:
        raise ValueError("no checkpoints to average")
    names = set(states[0])
    for st in states[1:]:
        if set(st) != names:
            raise ValueError("checkpoint key sets differ")
    out = {}
    for name in states[0]:
        base = states[0][name]
        acc = np.zeros_like(base, dtype=np.float64)
        for st in states[1:]:
            if st[name].shape != base.shape:
                raise ValueError(f"shape mismatch for '{name}': "
                                 f"{st[name].shape} vs {base.shape}")
            acc = acc + (st[name] - base)
        out[name] = base + acc / len(states)
    return out


# -- training loop ------------------------------------------------------------


@dataclass
class CheckpointRecord:
    step: int
    state: dict[str, np.ndarray]
    score: float | None = None
    path: Path | None = None


@dataclass
class PhaseSpan:
    phase: str
    start: int                      # first step of the span, 1-based
    end: int                        # last step of the span
    hash_before: dict[str, str]     # group -> hash entering the span
    hash_after: dict[str, str]      # group -> hash leaving the span


@dataclass
class TrainState:
    step: int = 0
    phase: str = EQUIPPED
    best_score: float = -math.inf
    best_step: int = -1
    ring: list[CheckpointRecord] = field(default_factory=list)


@dataclass
class TrainResult:
    params: ParameterSet
    vocab: Vocabulary
    tag_vocabs: dict[str, TagVocab]
    log_rows: list[dict]
    checkpoints: list[CheckpointRecord]
    phase_spans: list[PhaseSpan]
    best_step: int
    averaged: dict[str, np.ndarray] | None


def cycle_batches(samples: list[TrainingSample], vocab: Vocabulary,
                  tag_vocabs: dict[str, TagVocab], batch_size: int):
    """Deterministic batch stream: contiguous windows over the sample list,
    wrapping around forever. No shuffling, so runs are reproducible."""
    if not samples:
        raise ValidationError("cannot iterate an empty corpus")
    n = len(samples)
    start = 0
    while True:
        take = min(batch_size, n)
        chunk = [samples[(start + i) % n] for i in range(take)]
        start = (start + take) % n
        yield encode_batch(chunk, vocab, tag_vocabs)


def _group_hashes(params: ParameterSet) -> dict[str, str]:
    return {g: params.group_hash(g) for g in GROUPS}


def generate(params: ParameterSet, samples: list[TrainingSample],
             vocab: Vocabulary, tag_vocabs: dict[str, TagVocab],
             config: Config, beam: int) -> list[tuple[list[str], float]]:
    """Question tokens and length-normalized score per sample, by beam search
    (beam=1 is greedy decoding) over one sample at a time, recording no tape.

    The one decode path behind ``ckqg generate``, dev BLEU and decode_sample.
    """
    decoded = []
    with T.no_grad():
        for sample in samples:
            batch = encode_batch([sample], vocab, tag_vocabs)
            enc = qg_model.encode_passage(params, batch)
            kmem = None
            if batch.has_triples:
                trip = aux_tasks.encode_triples(params, batch)
                kmem = aux_tasks.unified_memory(params, trip)
            hyp = qg_model.beam_search(params, "dec", enc, kmem, batch.copy_ids,
                                       batch.extended_size, beam=beam,
                                       max_len=config.max_len,
                                       length_penalty=config.length_penalty)
            decoded.append((vocab.decode_ids(hyp.ids, batch.oov_tokens[0]),
                            hyp.score))
    return decoded


def decode_sample(params: ParameterSet, sample: TrainingSample,
                  vocab: Vocabulary, tag_vocabs: dict[str, TagVocab], *,
                  beam: int = 1, max_len: int = 30) -> list[str]:
    """Question tokens for one sample under the default config's other
    generation settings; see generate."""
    return generate(params, [sample], vocab, tag_vocabs, Config(max_len=max_len),
                    beam)[0][0]


def evaluate_dev(params: ParameterSet, dev: list[TrainingSample],
                 vocab: Vocabulary, tag_vocabs: dict[str, TagVocab],
                 config: Config) -> float:
    """Dev BLEU-4 of greedy decoding."""
    hyps = [toks for toks, _ in generate(params, dev, vocab, tag_vocabs, config, 1)]
    refs = [list(s.question) for s in dev]
    return metrics.bleu(hyps, refs, max_n=4)


def _save_ring_entry(state: TrainState, params: ParameterSet, step: int,
                     score: float | None, out_dir: Path | None,
                     capacity: int) -> None:
    """Append a snapshot, evicting the oldest non-best entry past capacity.

    The best-scoring checkpoint is pinned: averaging centers on it, so it
    must survive however much later the run ends."""
    rec = CheckpointRecord(step=step, state=params.state_dict(), score=score)
    if out_dir is not None:
        rec.path = out_dir / f"ckpt-{step:06d}.bin"
        save_checkpoint(rec.path, rec.state)
    state.ring.append(rec)
    while len(state.ring) > capacity:
        victim = next((i for i, r in enumerate(state.ring)
                       if r.step != state.best_step), 0)
        old = state.ring.pop(victim)
        if old.path is not None:
            old.path.unlink(missing_ok=True)


def _select_for_average(ring: list[CheckpointRecord], best_step: int,
                        k: int) -> list[CheckpointRecord]:
    """The best checkpoint plus its nearest neighbors by save order, earlier
    entries winning distance ties; result in save order."""
    best_idx = next(i for i, r in enumerate(ring) if r.step == best_step)
    order = sorted(range(len(ring)), key=lambda i: (abs(i - best_idx), i))
    return [ring[i] for i in sorted(order[:k])]


def train(equipped: list[TrainingSample], pure: list[TrainingSample],
          dev: list[TrainingSample], config: Config, *, mode: str = "itf",
          no_tg: bool = False, no_rc: bool = False,
          out_dir: str | Path | None = None,
          vocab: Vocabulary | None = None,
          tag_vocabs: dict[str, TagVocab] | None = None,
          stop_below: float | None = None,
          init_state: dict[str, np.ndarray] | None = None) -> TrainResult:
    """Run the phase schedule over the two corpora.

    mode "itf" alternates equipped and plain spans and needs both corpora;
    "equipped-only" trains every step on equipped batches (ablation runs).
    stop_below ends training early once the question loss drops under the
    threshold, for quick-convergence checks. init_state resumes from a saved
    checkpoint instead of fresh random weights.
    """
    config.validate()
    if mode == "itf":
        if not equipped or not pure:
            raise ValidationError("itf mode needs both corpora non-empty")
        schedule = itf_schedule(ITFConfig(config.itf_n, config.itf_cycles))
    elif mode == "equipped-only":
        if not equipped:
            raise ValidationError("equipped corpus is empty")
        schedule = [EQUIPPED] * (config.itf_n * config.itf_cycles)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    all_samples = list(equipped) + list(pure)
    if vocab is None:
        vocab = build_vocab(all_samples, max_size=config.vocab_size,
                            min_freq=config.min_freq)
    if tag_vocabs is None:
        tag_vocabs = build_tag_vocabs(all_samples)

    init_rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)
    params = build_parameters(config, vocab, tag_vocabs, init_rng)
    if init_state is not None:
        params.load_state_dict(init_state)
    optimizer = Adam(params, lr=config.lr)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    eq_iter = cycle_batches(equipped, vocab, tag_vocabs, config.batch_size)
    pure_iter = (cycle_batches(pure, vocab, tag_vocabs, config.batch_size)
                 if pure else None)

    state = TrainState()
    rows: list[dict] = []
    spans: list[PhaseSpan] = []
    span_start = 1
    span_hashes = _group_hashes(params)

    def close_span(end_step: int, phase: str) -> None:
        spans.append(PhaseSpan(phase=phase, start=span_start, end=end_step,
                               hash_before=span_hashes,
                               hash_after=_group_hashes(params)))

    last_step = 0
    for step, phase in enumerate(schedule, start=1):
        if phase != state.phase and step > 1:
            close_span(step - 1, state.phase)
            span_start = step
            span_hashes = spans[-1].hash_after
        state.phase = phase
        state.step = step

        batch = next(eq_iter if phase == EQUIPPED else pure_iter)
        try:
            if phase == EQUIPPED:
                bundle = unified_forward(params, batch,
                                         drop_rate=config.dropout, rng=drop_rng,
                                         no_rc=no_rc, no_tg=no_tg)
            else:
                bundle = pure_forward(params, batch, drop_rate=config.dropout,
                                      rng=drop_rng)
            l_q, l_r, l_t, total = bundle.values()
            if not math.isfinite(total):
                raise T.NumericsError(
                    f"L_q={l_q} L_r={l_r} L_t={l_t} L={total}")
            params.zero_grads()
            bundle.l.backward()
        except T.NumericsError as e:
            raise TrainingError(
                f"divergence at step {step} ({phase} phase): {e}") from e
        params.clip_grads(config.grad_clip)
        optimizer.step(_trainable_names(params, phase))

        dev_score: float | None = None
        at_eval = step % config.eval_every == 0 or step == len(schedule)
        if at_eval and dev:
            dev_score = evaluate_dev(params, dev, vocab, tag_vocabs, config)
            if dev_score > state.best_score:
                state.best_score = dev_score
                state.best_step = step
            _save_ring_entry(state, params, step, dev_score, out_path,
                             config.ckpt_keep)
        rows.append({"step": step, "phase": phase, "l_q": l_q, "l_r": l_r,
                     "l_t": l_t, "l": total, "dev_bleu4": dev_score})
        last_step = step
        if stop_below is not None and l_q < stop_below:
            log.info("question loss %.4f under %.4f at step %d, stopping",
                     l_q, stop_below, step)
            break

    close_span(last_step, state.phase)

    averaged = None
    if state.ring and state.best_step >= 0:
        k = min(config.avg_k, len(state.ring))
        chosen = _select_for_average(state.ring, state.best_step, k)
        averaged = average_checkpoints([r.state for r in chosen])
    best = state.best_step if state.best_step >= 0 else last_step
    if out_path is not None:
        write_log_csv(out_path / "train_log.csv", rows)
        final = averaged if averaged is not None else params.state_dict()
        save_checkpoint(out_path / "model.bin", final)
    return TrainResult(params=params, vocab=vocab, tag_vocabs=tag_vocabs,
                       log_rows=rows, checkpoints=state.ring,
                       phase_spans=spans, best_step=best, averaged=averaged)


def write_log_csv(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "phase", "L_q", "L_r", "L_t", "L",
                         "dev_bleu4"])
        for r in rows:
            dev = "" if r["dev_bleu4"] is None else repr(r["dev_bleu4"])
            writer.writerow([r["step"], r["phase"], repr(r["l_q"]),
                             repr(r["l_r"]), repr(r["l_t"]), repr(r["l"]),
                             dev])
