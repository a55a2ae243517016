"""Command-line interface: extraction, statistics, training, generation,
evaluation, and gradient checking as subcommands of one executable.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import kb_extract as kb
from . import aux_tasks, metrics, qg_model, trainer
from .assets import KB_CONCEPTNET, KB_WORDNET, MINI_CORPUS, STOPWORDS, asset_path
from .config import Config, ConfigError, load_config, parse_config_file
from .corpus import (RESERVED, TagVocab, TrainingSample, ValidationError,
                     Vocabulary, build_tag_vocabs, build_vocab, encode_batch,
                     is_str_list, load_dataset, save_dataset)
from .nn import tensor as T
from .nn.checkpoint import CheckpointError, load_checkpoint
from .nn.gradcheck import grad_check
from .nn.params import ParameterSet

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

GRADCHECK_TOLERANCE = 1e-4


def _load_cfg(args) -> Config:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    return load_config(args.config, overrides=overrides)


def _require_out(args, parser_hint: str) -> Path:
    if not args.out:
        raise ConfigError(f"{parser_hint} needs --out")
    return Path(args.out)


def _sample_key(sample: TrainingSample, index: int) -> str:
    return sample.sample_id if sample.sample_id is not None else f"index:{index}"


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


# -- extract ------------------------------------------------------------------


def cmd_extract(args) -> int:
    samples = load_dataset(args.corpus)
    stores = []
    if args.conceptnet:
        stores.append(kb.load_knowledge_base(args.conceptnet, "ConceptNet"))
    if args.wordnet:
        stores.append(kb.load_knowledge_base(args.wordnet, "WordNet"))
    stop_path = args.stopwords or asset_path(STOPWORDS)
    stopwords = kb.load_stopwords(stop_path)
    for s in samples:
        s.triples[:] = kb.extract_for_sample(s.passage, s.question,
                                             stopwords, stores)
    equipped, pure = kb.partition_dataset(samples)
    out = _require_out(args, "extract")
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(out / "annotated.jsonl", samples)
    manifest = {
        "equipped": [_sample_key(s, i) for i, s in enumerate(samples) if s.triples],
        "pure": [_sample_key(s, i) for i, s in enumerate(samples) if not s.triples],
    }
    (out / "partition.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"annotated {len(samples)} samples: {len(equipped)} equipped, "
          f"{len(pure)} pure -> {out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    samples = load_dataset(args.corpus)
    equipped, pure = kb.partition_dataset(samples)
    report = kb.stats_report(equipped, pure)
    _emit(asdict(report), args.out)
    return EXIT_OK


# -- train --------------------------------------------------------------------


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


def _load_world(model_dir: Path) -> tuple[Config, Vocabulary, dict[str, TagVocab]]:
    path = model_dir / "config.json"
    raw = json.loads(path.read_text())
    # JSON numbers only: a quoted "8" would slip through the string parser
    if not isinstance(raw, dict) or not all(
            isinstance(v, (int, float)) for v in raw.values()):
        raise ConfigError(f"{path}: expected an object of numeric settings")
    cfg = load_config(overrides={k: str(v) for k, v in raw.items()}, env={})
    path = model_dir / "vocab.json"
    raw = json.loads(path.read_text())
    if not (isinstance(raw, dict) and is_str_list(raw.get("tokens"))):
        raise ValidationError(f'{path}: expected {{"tokens": [string, ...]}}')
    vocab = Vocabulary(raw["tokens"])
    path = model_dir / "tags.json"
    raw = json.loads(path.read_text())
    if not (isinstance(raw, dict) and sorted(raw) == ["bio", "ner", "pos"]
            and all(map(is_str_list, raw.values()))):
        raise ValidationError(f"{path}: expected lists of strings under bio, pos and ner")
    return cfg, vocab, {k: TagVocab(v) for k, v in raw.items()}


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = _require_out(args, "train")
    equipped = load_dataset(args.equipped)
    pure = load_dataset(args.pure) if args.pure else []
    dev = load_dataset(args.dev) if args.dev else []
    result = trainer.train(equipped, pure, dev, cfg, mode=args.mode,
                           no_tg=args.no_tg, no_rc=args.no_rc, out_dir=out)
    _save_world(out, cfg, result.vocab, result.tag_vocabs)
    final = result.log_rows[-1]
    print(f"trained {final['step']} steps, final L={final['l']:.4f}, "
          f"best step {result.best_step} -> {out}")
    return EXIT_OK


# -- generate -----------------------------------------------------------------


def _load_model(model_dir: Path) -> tuple:
    """The saved model, checked against trainer.model_spec. Nothing is drawn
    and nothing copied: the parameters adopt the checkpoint's arrays."""
    cfg, vocab, tags = _load_world(model_dir)
    path = model_dir / "model.bin"
    state = load_checkpoint(path)
    spec = trainer.model_spec(cfg, len(vocab), {k: len(v) for k, v in tags.items()})
    extra = sorted(set(state) - {name for name, *_ in spec})
    if extra:
        raise CheckpointError(f"{path}: parameters {extra} are not in the model "
                              f"config.json describes")
    params = ParameterSet(cfg.layers)
    for name, shape, group, _ in spec:
        if name not in state:
            raise CheckpointError(f"{path}: missing parameter '{name}'")
        if state[name].shape != shape:
            raise CheckpointError(f"{path}: parameter '{name}' has shape "
                                  f"{state[name].shape}, config.json needs {shape}")
        params.add(name, state[name], group)
    return cfg, vocab, tags, params


def cmd_generate(args) -> int:
    model_dir = Path(args.model)
    cfg, vocab, tags, params = _load_model(model_dir)
    beam = args.beam if args.beam is not None else cfg.beam
    samples = load_dataset(args.corpus)
    decoded = trainer.generate(params, samples, vocab, tags, cfg, beam)
    lines = [json.dumps({"id": _sample_key(s, i), "question": tokens, "score": score})
             for i, (s, (tokens, score)) in enumerate(zip(samples, decoded))]
    text = "\n".join(lines) + "\n" if lines else ""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- evaluate -----------------------------------------------------------------


def _read_jsonl(path: str) -> list[tuple[str, dict]]:
    """Non-blank rows of a JSONL file, each with its ``path:line`` location."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(row, dict):
                raise ValidationError(f"{path}:{lineno}: expected a JSON object")
            rows.append((f"{path}:{lineno}", row))
    return rows


def _token_field(row: dict, key: str, where: str) -> list[str]:
    if key not in row:
        raise ValidationError(f"{where}: missing '{key}' field")
    value = row[key]
    if isinstance(value, str):
        return value.split()
    if not is_str_list(value):
        raise ValidationError(f"{where}: '{key}' must be a string or a list of strings")
    return value


def _field_source(row: dict, key: str, where: str) -> dict:
    """The row itself when it has ``key``, else its first triple."""
    if key in row:
        return row
    triples = row.get("triples") or []
    if not isinstance(triples, list) or not all(isinstance(t, dict) for t in triples):
        raise ValidationError(f"{where}: 'triples' must be a list of objects")
    if triples and key in triples[0]:
        return triples[0]
    raise ValidationError(f"{where}: no {key} on row or its first triple")


def _relation_field(row: dict, where: str) -> str:
    value = _field_source(row, "relation", where)["relation"]
    if not isinstance(value, str):
        raise ValidationError(f"{where}: 'relation' must be a string")
    return value


def _tail_field(row: dict, where: str) -> list[str]:
    return _token_field(_field_source(row, "tail", where), "tail", where)


def cmd_evaluate(args) -> int:
    hyp_rows = _read_jsonl(args.hyp)
    ref_rows = _read_jsonl(args.ref)
    if args.task == "qg":
        hyps = [_token_field(r, "question", where) for where, r in hyp_rows]
        refs = [_token_field(r, "question", where) for where, r in ref_rows]
        payload = metrics.qg_report(hyps, refs).to_dict()
    elif args.task == "rc":
        preds = [_relation_field(r, where) for where, r in hyp_rows]
        golds = [_relation_field(r, where) for where, r in ref_rows]
        payload = {"rc_accuracy": metrics.rc_accuracy(preds, golds),
                   "n_samples": len(golds)}
    else:
        hyps = [_tail_field(r, where) for where, r in hyp_rows]
        refs = [_tail_field(r, where) for where, r in ref_rows]
        payload = {"tg_bleu1": metrics.tg_bleu1(hyps, refs),
                   "n_samples": len(refs)}
    _emit(payload, args.out)
    return EXIT_OK


# -- gradcheck ----------------------------------------------------------------

# small enough that central differences over every component finish in
# seconds, large enough that every parameter tensor exists
_TOY = {"hidden_size": 3, "layers": 1, "emb_dim": 4, "feat_dim": 2,
        "vocab_size": 200, "dropout": 0.0, "batch_size": 2}


def _gradcheck_config(args) -> Config:
    file_keys = set(parse_config_file(args.config)) if args.config else set()
    cfg = _load_cfg(args)
    for key, value in _TOY.items():
        if key not in file_keys:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _gradcheck_batch(cfg: Config):
    samples = load_dataset(asset_path(MINI_CORPUS))
    stores = [kb.load_knowledge_base(asset_path(KB_CONCEPTNET), "ConceptNet"),
              kb.load_knowledge_base(asset_path(KB_WORDNET), "WordNet")]
    stopwords = kb.load_stopwords(asset_path(STOPWORDS))
    for s in samples:
        s.triples[:] = kb.extract_for_sample(s.passage, s.question,
                                             stopwords, stores)
    equipped, _ = kb.partition_dataset(samples)
    toy = equipped[:cfg.batch_size]
    vocab = build_vocab(toy, max_size=cfg.vocab_size, min_freq=cfg.min_freq)
    tags = build_tag_vocabs(toy)
    params = trainer.build_parameters(cfg, vocab, tags,
                                      np.random.default_rng(cfg.seed))
    return params, encode_batch(toy, vocab, tags)


def loss_closures(params, batch) -> dict:
    """Single-component forward passes for finite-difference checking.

    Each closure rebuilds only the graph its component needs, from the
    current parameter values."""
    def f_lr():
        enc = qg_model.encode_passage(params, batch)
        trip = aux_tasks.encode_triples(params, batch)
        _, pred = aux_tasks.rc_forward(params, enc, trip)
        return aux_tasks.rc_loss(pred, batch.relation_ids)

    def f_lt():
        enc = qg_model.encode_passage(params, batch)
        trip = aux_tasks.encode_triples(params, batch)
        steps = aux_tasks.tg_teacher_steps(params, enc, trip, batch)
        return qg_model.sequence_nll(steps, batch.tail_gen_ids,
                                     batch.tail_gen_lengths)

    return {
        "L_q": lambda: trainer.unified_forward(params, batch,
                                               no_rc=True, no_tg=True).l_q,
        "L_r": f_lr,
        "L_t": f_lt,
        "L": lambda: trainer.unified_forward(params, batch).l,
    }


def cmd_gradcheck(args) -> int:
    cfg = _gradcheck_config(args)
    params, batch = _gradcheck_batch(cfg)
    named = list(params.items())
    rng = np.random.default_rng(cfg.seed + 17)
    results = {}
    failed = False
    for name, f in loss_closures(params, batch).items():
        # eps well under the spacing of maxout lane crossings; central
        # differences at 1e-4 can straddle a max switch and report a false
        # mismatch on a correct gradient
        report = grad_check(f, named, eps=1e-6, samples_per_tensor=3, rng=rng)
        ok = report.max_rel_err <= GRADCHECK_TOLERANCE
        failed = failed or not ok
        results[name] = {"max_rel_err": report.max_rel_err,
                         "worst_param": report.worst_param,
                         "checked": report.checked}
        print(f"{name}: {report} -> {'ok' if ok else 'FAIL'}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(results, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    if failed:
        print(f"gradient mismatch above {GRADCHECK_TOLERANCE:g}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def _beam_width(text: str) -> int:
    beam = int(text)
    if beam < 1:
        raise argparse.ArgumentTypeError(f"beam must be >= 1, got {beam}")
    return beam


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ckqg",
        description="knowledge-aware question generation pipeline")
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--seed", type=int, help="override the seed setting")
    p.add_argument("--out", help="output file or directory")
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="annotate a corpus with aligned triples")
    ex.add_argument("--corpus", required=True, help="raw JSONL corpus")
    ex.add_argument("--conceptnet", help="ConceptNet TSV dump")
    ex.add_argument("--wordnet", help="WordNet TSV dump")
    ex.add_argument("--stopwords", help="one stopword per line")
    ex.set_defaults(func=cmd_extract)

    st = sub.add_parser("stats", help="summarize an annotated corpus")
    st.add_argument("--corpus", required=True, help="annotated JSONL corpus")
    st.set_defaults(func=cmd_stats)

    tr = sub.add_parser("train", help="run the alternating-phase trainer")
    tr.add_argument("--equipped", required=True, help="triple-annotated JSONL")
    tr.add_argument("--pure", help="triple-free JSONL")
    tr.add_argument("--dev", help="dev JSONL for periodic evaluation")
    tr.add_argument("--mode", choices=("itf", "equipped-only"), default="itf")
    tr.add_argument("--no-tg", action="store_true",
                    help="drop the tail generation loss")
    tr.add_argument("--no-rc", action="store_true",
                    help="drop the relation classification loss")
    tr.set_defaults(func=cmd_train)

    ge = sub.add_parser("generate", help="decode questions with a trained model")
    ge.add_argument("--model", required=True, help="training output directory")
    ge.add_argument("--corpus", required=True, help="JSONL corpus to decode")
    ge.add_argument("--beam", type=_beam_width, help="beam width (default from config)")
    ge.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="score hypotheses against references")
    ev.add_argument("--task", choices=("qg", "rc", "tg"), default="qg")
    ev.add_argument("--hyp", required=True, help="hypothesis JSONL")
    ev.add_argument("--ref", required=True, help="reference JSONL")
    ev.set_defaults(func=cmd_evaluate)

    gc = sub.add_parser("gradcheck",
                        help="finite-difference check of every loss component")
    gc.set_defaults(func=cmd_gradcheck)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    logging.basicConfig(level=logging.WARNING)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (trainer.TrainingError, T.NumericsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        # covers corpus/KB/checkpoint validation plus filesystem problems
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
