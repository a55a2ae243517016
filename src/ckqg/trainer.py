"""Multi-task training loop with alternating knowledge phases.

The question decoder always trains; on triple-equipped batches the relation
classifier and tail decoder add their losses and the decoder attends over
the triple memory. Training alternates fixed-length spans of equipped and
plain batches; during plain spans the knowledge parameter group and its
optimizer moments stay frozen, as a plain batch reaches no knowledge weight.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import threading
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import aux_tasks, metrics, qg_model
from .config import Config
from .corpus import (RESERVED, Batch, TagVocab, TrainingSample, ValidationError,
                     Vocabulary, build_tag_vocabs, build_vocab, check_tags,
                     encode_batch, sample_key)
from .nn import tensor as T
from .nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .nn.optim import Adam
from .nn.params import GROUPS, ParameterSet, initial_value

log = logging.getLogger(__name__)

EQUIPPED = "Equipped"
PURE = "Pure"


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
                    no_rc: bool = False, no_tg: bool = False) -> LossBundle:
    """Forward pass for a triple-equipped batch: question loss with attention
    over the triple memory, plus relation and tail losses unless ablated."""
    enc = qg_model.encode_passage(params, batch)
    trip = aux_tasks.encode_triples(params, batch)
    memory = qg_model.DecodeMemory(enc, aux_tasks.unified_memory(params, trip),
                                   batch.copy_ids, batch.extended_size, enc.bw_final)
    steps = qg_model.teacher_forced_steps(params, "dec", memory, batch.question_ids,
                                          batch.question_lengths)
    l_q = qg_model.sequence_nll(steps, batch.question_ids, batch.question_lengths)
    if no_rc:
        l_r = _zero()
    else:
        y_r = aux_tasks.rc_forward(params, enc, trip)
        l_r = aux_tasks.rc_loss(y_r, batch.relation_ids)
    if no_tg:
        l_t = _zero()
    else:
        tg_steps = aux_tasks.tg_teacher_steps(params, enc, trip, batch)
        l_t = qg_model.sequence_nll(tg_steps, batch.tail_gen_ids,
                                    batch.tail_gen_lengths)
    return _bundle(l_q, l_r, l_t)


def pure_forward(params: ParameterSet, batch: Batch) -> LossBundle:
    """Question-only forward: no knowledge memory, so no knowledge parameter
    enters the graph and the total equals the question loss exactly."""
    enc = qg_model.encode_passage(params, batch)
    memory = qg_model.DecodeMemory(enc, None, batch.copy_ids, batch.extended_size,
                                   enc.bw_final)
    steps = qg_model.teacher_forced_steps(params, "dec", memory, batch.question_ids,
                                          batch.question_lengths)
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


def check_weights(state: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]],
                  where: str | Path) -> dict[str, np.ndarray]:
    """The one fit rule for saved weights: ``state`` itself if it holds
    exactly the parameters of ``shapes``, each with its shape, else a
    CheckpointError naming ``where`` and the parameter."""
    extra = sorted(set(state) - set(shapes))
    if extra:
        raise CheckpointError(f"{where}: parameters {extra} are not in the model")
    for name, shape in shapes.items():
        if name not in state:
            raise CheckpointError(f"{where}: missing parameter '{name}'")
        if state[name].shape != shape:
            raise CheckpointError(f"{where}: parameter '{name}' has shape "
                                  f"{state[name].shape}, the model needs {shape}")
    return state


def average_checkpoints(states: Iterable[dict[str, np.ndarray]]
                        ) -> dict[str, np.ndarray]:
    """Arithmetic mean per parameter of states that share names and shapes
    (check_weights each one first).

    Computed as first + mean(deltas from first), summed in iteration order.
    Neighboring snapshots sit close together, so the deltas are small and
    the recentred form loses less precision than a plain sum; identical
    inputs come back bit-for-bit unchanged. Holds the first state, the sums
    and one more state at a time, so the states may stream from disk.
    """
    it = iter(states)
    base = next(it, None)
    if base is None:
        raise ValueError("no checkpoints to average")
    acc = {name: np.zeros_like(arr, dtype=np.float64) for name, arr in base.items()}
    n = 1
    for st in it:   # not enumerate: its reused result tuple keeps st alive
        n += 1
        for name, first in base.items():
            acc[name] += st[name] - first
        del st  # release it before the next state loads
    return {name: first + acc[name] / n for name, first in base.items()}


# -- training loop ------------------------------------------------------------


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
    log_rows: list[dict]
    phase_spans: list[PhaseSpan]
    best_step: int


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


# Lanes were timed on two CPUs only. About half of a decode step holds the
# GIL, so more lanes would add their beam state to peak RSS for a gain that
# was never measured.
MAX_LANES = 2
# One sample's multiply-adds per beam step (decode_step_work) below which a
# second lane gained little or lost. Timed on two CPUs at one BLAS thread,
# with groups encoded as one batch: the 8 samples of the benchmark's
# generate inputs (seed 7) at hidden size 128, medians of 6 alternating
# runs of 5 calls, one lane against two: beam 1 (1.1 M) 0.321 against
# 0.465 s, beam 3 (3.4 M) 0.470 against 0.558 s, beam 10 (11.4 M) 0.909
# against 0.712 s (two lanes faster in 6 of 6). Counting a group's rows
# instead would put beams 1 and 3 on two lanes. With one sample per step,
# beam 5 (5.7 M) read 0.98-1.21x one lane and 6.1-13 M 1.17-1.45x.
LANE_MIN_STEP_WORK = 5_000_000


def decode_step_work(params: ParameterSet, beam: int) -> int:
    """One sample's multiply-adds in one beam-search step, roughly: each of
    its beam rows meets every decoder weight a step reads (all of ``dec.``
    but the ``dec.init`` layers, which run once per sample). A decode step
    carries a group of samples, so this is not a step's work but the
    measure LANE_MIN_STEP_WORK was timed in."""
    return beam * sum(t.data.size for name, t in params.items()
                      if name.startswith("dec.") and not name.startswith("dec.init."))


def decode_lanes(n_samples: int, step_work: int) -> int:
    """How many lanes ``generate`` decodes on side by side: the CPUs this
    process may run on divided by the BLAS threads each product uses, at
    most one lane per sample, at most MAX_LANES and at least one. The BLAS
    count is OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS; unset or not a
    positive integer, OpenBLAS already runs on every CPU, so there is one
    lane. There is one lane too when one sample's beam rows do fewer than
    LANE_MIN_STEP_WORK multiply-adds per step (``step_work``, from
    decode_step_work): a second lane then gained little or lost. A CPU
    quota of the process's cgroup is not seen."""
    raw = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    try:
        blas_threads = int(raw)
    except (TypeError, ValueError):
        return 1
    if blas_threads < 1 or step_work < LANE_MIN_STEP_WORK:
        return 1
    if hasattr(os, "sched_getaffinity"):   # Linux only
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(n_samples, MAX_LANES, cpus // blas_threads))


# Samples per decoder group, at most: a group's beam state and per-step
# arrays grow with it, so a large corpus keeps bounded memory.
MAX_GROUP = 8


def decode_memories(params: ParameterSet, samples: list[TrainingSample],
                    vocab: Vocabulary, tag_vocabs: dict[str, TagVocab]
                    ) -> list[tuple[qg_model.DecodeMemory, list[str]]]:
    """Each sample's decode memory and OOV tokens, for a group of samples
    encoded together: the passages, padded, in one embedding and biLSTM pass
    (qg_model.encode_passages), the equipped samples' triples in one
    encode_triples pass (aux_tasks.unified_memories), and every result cut
    back to its sample's own widths. Run it under ``T.no_grad()`` and
    ``T.batch_invariant()``: each memory then equals, bit for bit, the one
    the sample gives encoded alone."""
    batch = encode_batch([replace(s, triples=[]) for s in samples], vocab, tag_vocabs)
    equipped = [i for i, s in enumerate(samples) if s.triples]
    kmems = {}
    if equipped:
        triples = encode_batch([samples[i] for i in equipped], vocab, tag_vocabs)
        kmems = dict(zip(equipped, aux_tasks.unified_memories(params, triples)))
    encs = qg_model.encode_passages(params, batch)
    return [(qg_model.DecodeMemory(enc, kmems.get(i), batch.copy_ids[i:i + 1, :n],
                                   len(vocab) + len(oov), enc.bw_final), oov)
            for i, (enc, n, oov) in enumerate(zip(encs, batch.passage_lengths.tolist(),
                                                  batch.oov_tokens))]


def generate(params: ParameterSet, samples: list[TrainingSample],
             vocab: Vocabulary, tag_vocabs: dict[str, TagVocab],
             config: Config, beam: int) -> list[tuple[list[str], float]]:
    """Question tokens and length-normalized score per sample, by beam search
    (beam=1 is greedy decoding), recording no tape.

    The one decode path behind ``ckqg generate`` and dev BLEU. The samples
    split into groups of consecutive samples, as many per group as spreads
    them evenly over the ``decode_lanes`` lanes but at most MAX_GROUP. Each
    group is encoded as one batch (decode_memories) and beam-searched as one
    decoder batch (qg_model.beam_search_group), both under
    ``T.batch_invariant()``. One lane decodes the groups in order on the
    calling thread; more lanes are the workers of a thread pool, and the
    caller reads their results in group order. Every result is bit for bit
    what the sample gives encoded and decoded alone, on any lane: the lane
    count sets no BLAS thread count. A group that raises an error in
    encoding or search is decoded again one sample at a time, as a group of
    one, to find the sample that fails; a NumericsError there is raised
    again naming that sample's key and index. Once a group fails, or the
    caller is interrupted, no group that has not started begins, and the
    caller raises the first failure in group order once the running groups
    end.
    """
    lanes = decode_lanes(len(samples), decode_step_work(params, beam))
    size = max(1, min(MAX_GROUP, -(-len(samples) // lanes)))
    starts = range(0, len(samples), size)
    stop = threading.Event()

    def decode_group(group: list[TrainingSample]) -> list[tuple[list[str], float]]:
        memories, oovs = zip(*decode_memories(params, group, vocab, tag_vocabs))
        hyps = qg_model.beam_search_group(params, "dec", list(memories), beam=beam,
                                          max_len=config.max_len,
                                          length_penalty=config.length_penalty)
        return [(vocab.decode_ids(hyp.ids, oov), hyp.score)
                for hyp, oov in zip(hyps, oovs)]

    def alone(index: int, sample: TrainingSample) -> tuple[list[str], float]:
        try:
            return decode_group([sample])[0]
        except T.NumericsError as e:
            raise T.NumericsError(f"sample {sample_key(sample, index)} "
                                  f"(index {index}): {e}") from e

    def decode(lo: int) -> list[tuple[list[str], float]]:
        if stop.is_set():   # the caller raises the error that set it
            return []
        group = samples[lo:lo + size]
        try:
            with T.no_grad(), T.batch_invariant():   # tape modes are per thread
                try:
                    return decode_group(group)
                except Exception:   # not an interrupt: find the sample that fails
                    return [alone(i, sample) for i, sample in enumerate(group, lo)]
        except BaseException:
            stop.set()
            raise

    if lanes == 1:
        return [row for lo in starts for row in decode(lo)]
    with ThreadPoolExecutor(lanes) as pool:
        try:
            futures = [pool.submit(decode, lo) for lo in starts]
            return [row for future in futures for row in future.result()]
        except BaseException:   # an interrupt while submitting or waiting too
            stop.set()
            raise


def evaluate_dev(params: ParameterSet, dev: list[TrainingSample],
                 vocab: Vocabulary, tag_vocabs: dict[str, TagVocab],
                 config: Config) -> float:
    """Dev BLEU-4 of greedy decoding."""
    hyps = [toks for toks, _ in generate(params, dev, vocab, tag_vocabs, config, 1)]
    refs = [list(s.question) for s in dev]
    return metrics.bleu(hyps, refs, max_n=4)


def _save_world(out: Path, cfg: Config, vocab: Vocabulary,
                tag_vocabs: dict[str, TagVocab]) -> None:
    (out / "config.json").write_text(
        json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    (out / "vocab.json").write_text(
        json.dumps({"tokens": vocab.id_to_token[len(RESERVED):]}) + "\n",
        encoding="utf-8")
    (out / "tags.json").write_text(
        json.dumps({k: v.id_to_tag[1:] for k, v in tag_vocabs.items()},
                   sort_keys=True) + "\n", encoding="utf-8")


def _ring_path(out_dir: Path, step: int) -> Path:
    return out_dir / f"ckpt-{step:06d}.bin"


def _save_ring_entry(ring: list[int], best_step: int, params: ParameterSet,
                     step: int, out_dir: Path, capacity: int) -> None:
    """Write a snapshot file, evicting the oldest non-best step past capacity.

    The best-scoring checkpoint is pinned: averaging centers on it, so it
    must survive however much later the run ends."""
    save_checkpoint(_ring_path(out_dir, step), {n: t.data for n, t in params.items()})
    ring.append(step)
    while len(ring) > capacity:
        victim = next((i for i, s in enumerate(ring) if s != best_step), 0)
        _ring_path(out_dir, ring.pop(victim)).unlink(missing_ok=True)


def _select_for_average(ring: list[int], best_step: int, k: int) -> list[int]:
    """The best step plus its nearest neighbors by save order, earlier
    entries winning distance ties; result in save order."""
    best_idx = ring.index(best_step)
    order = sorted(range(len(ring)), key=lambda i: (abs(i - best_idx), i))
    return [ring[i] for i in sorted(order[:k])]


def train(equipped: list[TrainingSample], pure: list[TrainingSample],
          dev: list[TrainingSample], config: Config, *, out_dir: str | Path,
          mode: str = "itf", no_tg: bool = False, no_rc: bool = False,
          vocab: Vocabulary | None = None,
          tag_vocabs: dict[str, TagVocab] | None = None,
          stop_below: float | None = None) -> TrainResult:
    """Run the phase schedule over the two corpora, writing out_dir.

    mode "itf" alternates equipped and plain spans and needs both corpora;
    "equipped-only" trains every step on equipped batches (ablation runs).
    Plain steps update only qg_core by construction: pure_forward gives no
    knowledge parameter a gradient, and Adam skips a parameter without one.
    stop_below ends training early once the question loss drops under the
    threshold, for quick-convergence checks.

    out_dir gets config.json, vocab.json and tags.json before step 1, so a
    failed run leaves what reads its ring; then the ckpt-NNNNNN.bin ring of
    dev-evaluated steps (each file must pass check_weights to be averaged)
    and, once training ends, train_log.csv and model.bin.
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
    check_tags(dev, tag_vocabs, "dev sample")   # fail now, not at the first dev eval
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _save_world(out_dir, config, vocab, tag_vocabs)

    init_rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + 1)
    params = build_parameters(config, vocab, tag_vocabs, init_rng)
    optimizer = Adam(params, lr=config.lr)

    eq_iter = cycle_batches(equipped, vocab, tag_vocabs, config.batch_size)
    pure_iter = cycle_batches(pure, vocab, tag_vocabs, config.batch_size)

    best_score, best_step = -math.inf, -1
    ring: list[int] = []
    rows: list[dict] = []
    spans: list[PhaseSpan] = []
    span_start, span_hashes = 1, _group_hashes(params)
    for step, phase in enumerate(schedule, start=1):
        batch = next(eq_iter if phase == EQUIPPED else pure_iter)
        try:
            with T.training(config.dropout, drop_rng):
                if phase == EQUIPPED:
                    bundle = unified_forward(params, batch, no_rc=no_rc, no_tg=no_tg)
                else:
                    bundle = pure_forward(params, batch)
            l_q, l_r, l_t, total = bundle.values()
            bundle.l.backward()
        except T.NumericsError as e:
            raise T.NumericsError(
                f"divergence at step {step} ({phase} phase): {e}") from e
        norm = params.clip_grads(config.grad_clip)
        if not math.isfinite(norm):
            bad = [n for n, t in params.items()
                   if t.grad is not None and not np.isfinite(t.grad).all()]
            raise T.NumericsError(
                f"divergence at step {step} ({phase} phase): gradient norm {norm}; "
                f"non-finite gradient entries in {', '.join(bad) or 'no parameter'}")
        optimizer.step()
        params.zero_grads()

        dev_score: float | None = None
        at_eval = step % config.eval_every == 0 or step == len(schedule)
        if at_eval and dev:
            try:
                dev_score = evaluate_dev(params, dev, vocab, tag_vocabs, config)
            except T.NumericsError as e:
                raise T.NumericsError(
                    f"dev evaluation after step {step} ({phase} phase): {e}") from e
            if dev_score > best_score:
                best_score, best_step = dev_score, step
            _save_ring_entry(ring, best_step, params, step, out_dir, config.ckpt_keep)
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

    final = {n: t.data for n, t in params.items()}
    if ring and best_step >= 0:
        shapes = {n: t.data.shape for n, t in params.items()}
        paths = [_ring_path(out_dir, s)
                 for s in _select_for_average(ring, best_step, config.avg_k)]
        final = average_checkpoints(
            check_weights(load_checkpoint(p), shapes, p) for p in paths)
    write_log_csv(out_dir / "train_log.csv", rows)
    save_checkpoint(out_dir / "model.bin", final)
    best = best_step if best_step >= 0 else len(rows)
    return TrainResult(params=params, log_rows=rows, phase_spans=spans,
                       best_step=best)


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
