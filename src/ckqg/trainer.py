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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aux_tasks, metrics, qg_model
from .config import Config
from .corpus import (Batch, TagVocab, TrainingSample, ValidationError,
                     Vocabulary, build_tag_vocabs, build_vocab, encode_batch)
from .nn import tensor as T
from .nn.checkpoint import save_checkpoint
from .nn.optim import Adam
from .nn.params import GROUPS, ParameterSet, initial_value

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


def itf_schedule(n: int, cycles: int) -> list[str]:
    """Phase per step: n equipped steps then n plain steps, repeated."""
    return ([EQUIPPED] * n + [PURE] * n) * cycles


# -- assembly -----------------------------------------------------------------


def model_spec(config: Config, vocab_size: int, tag_sizes: dict[str, int]
               ) -> list[tuple[str, tuple[int, ...], str, str]]:
    """Every parameter of the model as (name, shape, group, init), in the
    order build_parameters draws them; ``init`` names an
    nn.params.initial_value rule. Every LSTM stack is ``config.layers`` deep
    and every hidden state ``config.hidden_size`` wide."""
    e, f, h = config.emb_dim, config.feat_dim, config.hidden_size
    spec: list[tuple[str, tuple[int, ...], str, str]] = []
    group = "qg_core"   # reassigned below, before the knowledge entries

    def add(name: str, shape: tuple[int, ...], init: str = "uniform") -> None:
        spec.append((name, shape, group, init))

    def linear(prefix: str, n_in: int, n_out: int) -> None:
        add(f"{prefix}.W", (n_in, n_out))
        add(f"{prefix}.b", (n_out,), "zeros")

    def lstm(prefix: str, n_in: int) -> None:
        add(f"{prefix}.W", (n_in + h, 4 * h))   # fused gates over [x; h_prev]
        add(f"{prefix}.b", (4 * h,), "lstm_bias")

    def bilstm(prefix: str, n_in: int) -> None:
        for k in range(config.layers):
            lstm(f"{prefix}.l{k}.fw", n_in if k == 0 else 2 * h)
            lstm(f"{prefix}.l{k}.bw", n_in if k == 0 else 2 * h)

    def decoder(prefix: str, init_dim: int) -> None:
        # init_dim is the width of the encoder summary that seeds each
        # layer's h0; the blend block mixes passage context (c), knowledge
        # context (k) and the LSTM state (s) into the readout feed
        for k in range(config.layers):
            linear(f"{prefix}.init.l{k}", init_dim, h)
        for k in range(config.layers):
            lstm(f"{prefix}.cell.l{k}", e + h if k == 0 else h)
        add(f"{prefix}.blend.c.W", (2 * h, h))
        add(f"{prefix}.blend.k.W", (2 * h, h))
        add(f"{prefix}.blend.s.W", (h, h))
        add(f"{prefix}.blend.b", (h,), "zeros")
        linear(f"{prefix}.readout", 3 * h, 2 * h)
        linear(f"{prefix}.out", h, vocab_size)
        linear(f"{prefix}.copy", 3 * h + e, 1)

    add("emb.word", (vocab_size, e))
    for tag in ("bio", "ner", "pos"):
        add(f"emb.{tag}", (tag_sizes[tag], f))
    bilstm("enc", e + 3 * f)
    add("selfmatch.W", (2 * h, 2 * h))
    linear("gate", 4 * h, 1)
    # passage attention projection; both decoders score against it
    add("attn.Wh", (2 * h, h))
    decoder("dec", h)

    group = "knowledge"
    # one row per relation token, then the head/tail separator
    add("know.special", (aux_tasks.N_RELATIONS + 1, e))
    bilstm("ht_enc", e)
    bilstm("hr_enc", e)
    linear("rc.out", 4 * h, aux_tasks.N_RELATIONS)
    add("know.Wq", (2 * h, h))
    add("tg.Wk", (2 * h, h))
    decoder("tg.dec", 2 * h)
    return spec


def build_parameters(config: Config, vocab: Vocabulary,
                     tag_vocabs: dict[str, TagVocab],
                     rng: np.random.Generator) -> ParameterSet:
    """A fresh model: model_spec's entries drawn from rng in table order."""
    sizes = {k: len(v) for k, v in tag_vocabs.items()}
    params = ParameterSet(config.layers)
    for name, shape, group, init in model_spec(config, len(vocab), sizes):
        params.add(name, initial_value(init, shape, rng), group)
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

    The one decode path behind ``ckqg generate`` and dev BLEU.
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


def evaluate_dev(params: ParameterSet, dev: list[TrainingSample],
                 vocab: Vocabulary, tag_vocabs: dict[str, TagVocab],
                 config: Config) -> float:
    """Dev BLEU-4 of greedy decoding."""
    hyps = [toks for toks, _ in generate(params, dev, vocab, tag_vocabs, config, 1)]
    refs = [list(s.question) for s in dev]
    return metrics.bleu(hyps, refs, max_n=4)


def _save_ring_entry(ring: list[CheckpointRecord], best_step: int,
                     params: ParameterSet, step: int, score: float | None,
                     out_dir: Path | None, capacity: int) -> None:
    """Append a snapshot, evicting the oldest non-best entry past capacity.

    The best-scoring checkpoint is pinned: averaging centers on it, so it
    must survive however much later the run ends."""
    rec = CheckpointRecord(step=step, state=params.state_dict(), score=score)
    if out_dir is not None:
        rec.path = out_dir / f"ckpt-{step:06d}.bin"
        save_checkpoint(rec.path, rec.state)
    ring.append(rec)
    while len(ring) > capacity:
        victim = next((i for i, r in enumerate(ring) if r.step != best_step), 0)
        old = ring.pop(victim)
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
    Plain steps update only qg_core: knowledge weights and moments stay frozen.
    stop_below ends training early once the question loss drops under the
    threshold, for quick-convergence checks. init_state starts from a saved
    checkpoint's weights instead of fresh random ones; the Adam moments and
    step count, the schedule position, the batch order and the dropout rng
    still start fresh.
    """
    config.validate()
    if mode == "itf":
        if not equipped or not pure:
            raise ValidationError("itf mode needs both corpora non-empty")
        schedule = itf_schedule(config.itf_n, config.itf_cycles)
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
    for i, sample in enumerate(dev):   # fail now, not at the first dev eval
        try:
            encode_batch([sample], vocab, tag_vocabs)
        except ValidationError as e:
            name = sample.sample_id if sample.sample_id is not None else f"#{i}"
            raise ValidationError(f"dev sample {name}: {e}") from None

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

    core_names = set(params.names("qg_core"))
    best_score, best_step = -math.inf, -1
    ring: list[CheckpointRecord] = []
    rows: list[dict] = []
    spans: list[PhaseSpan] = []
    span_start, span_hashes = 1, _group_hashes(params)
    for step, phase in enumerate(schedule, start=1):
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
            bundle.l.backward()
        except T.NumericsError as e:
            raise TrainingError(
                f"divergence at step {step} ({phase} phase): {e}") from e
        params.clip_grads(config.grad_clip)
        optimizer.step(core_names if phase == PURE else None)
        params.zero_grads()

        dev_score: float | None = None
        at_eval = step % config.eval_every == 0 or step == len(schedule)
        if at_eval and dev:
            dev_score = evaluate_dev(params, dev, vocab, tag_vocabs, config)
            if dev_score > best_score:
                best_score, best_step = dev_score, step
            _save_ring_entry(ring, best_step, params, step, dev_score,
                             out_path, config.ckpt_keep)
        rows.append({"step": step, "phase": phase, "l_q": l_q, "l_r": l_r,
                     "l_t": l_t, "l": total, "dev_bleu4": dev_score})
        stop = stop_below is not None and l_q < stop_below
        if stop or step == len(schedule) or schedule[step] != phase:
            spans.append(PhaseSpan(phase=phase, start=span_start, end=step,
                                   hash_before=span_hashes,
                                   hash_after=_group_hashes(params)))
            span_start, span_hashes = step + 1, spans[-1].hash_after
        if stop:
            log.info("question loss %.4f under %.4f at step %d, stopping",
                     l_q, stop_below, step)
            break

    averaged = None
    if ring and best_step >= 0:
        k = min(config.avg_k, len(ring))
        chosen = _select_for_average(ring, best_step, k)
        averaged = average_checkpoints([r.state for r in chosen])
    best = best_step if best_step >= 0 else len(rows)
    if out_path is not None:
        write_log_csv(out_path / "train_log.csv", rows)
        final = averaged if averaged is not None else params.state_dict()
        save_checkpoint(out_path / "model.bin", final)
    return TrainResult(params=params, vocab=vocab, tag_vocabs=tag_vocabs,
                       log_rows=rows, checkpoints=ring,
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
