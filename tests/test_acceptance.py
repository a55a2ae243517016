"""End-to-end acceptance checks for the whole package.

Each test exercises one promised behavior at the stated tolerance and prints
a single verdict line (run pytest with -s to see the lines for passing
tests). The runs are desk-scale on purpose: tiny models, toy corpora, fixed
seeds. What is being checked is correctness of the machinery, not
benchmark-level output quality.
"""

import csv
import struct
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from ckqg import aux_tasks as AX
from ckqg import cli
from ckqg import kb_extract as kb
from ckqg import metrics as ME
from ckqg import qg_model as QG
from ckqg import trainer as TR
from ckqg.assets import KB_CONCEPTNET, KB_WORDNET, MINI_CORPUS, STOPWORDS, asset_path
from ckqg.config import Config
from ckqg.corpus import (TrainingSample, Vocabulary, build_tag_vocabs,
                         build_vocab, coarse_tags, encode_batch, load_dataset,
                         save_dataset)
from ckqg.kb_extract import RELATIONS, AlignedTriple, KnowledgeTriple
from ckqg.nn import tensor as T
from ckqg.nn.gradcheck import grad_check

from oracles import (brute_force_extract, reference_bleu, reference_decode_step,
                     reference_greedy_decode)


@contextmanager
def verdict(num, label):
    """Print one PASS/FAIL line per criterion, whatever the assertions do."""
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[{num:>2}/11] FAIL  {label}")
        raise
    print(f"[{num:>2}/11] PASS  {label} ({time.monotonic() - started:.1f}s)")


# ---------------------------------------------------------------------------
# shared toy data builders


def make_config(**kw):
    cfg = Config()
    base = dict(hidden_size=3, layers=1, emb_dim=4, feat_dim=2, dropout=0.0,
                vocab_size=200, batch_size=2, lr=0.01, itf_n=2, itf_cycles=1,
                eval_every=10 ** 9, ckpt_keep=3, avg_k=3, seed=13, beam=2,
                max_len=12)
    base.update(kw)
    for key, value in base.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def make_sample(text, question, span, sid, head, rel, tail):
    """Equipped sample whose triple bridges passage (head) and question (tail)."""
    toks = text.split()
    q = question.split()
    pos, ner = coarse_tags(toks)
    assert head in toks and tail in q, (sid, head, tail)
    trip = AlignedTriple(KnowledgeTriple(head, rel, tail, "ConceptNet"))
    return TrainingSample(passage=toks, answer_span=span, pos_tags=pos,
                          ner_tags=ner, question=q, triples=[trip],
                          sample_id=sid)


def overfit_corpus():
    """Ten memorizable samples; 'kraken' in o10 is kept out of the model
    vocabulary so its question is only reachable through copying."""
    return [
        make_sample("the falcon hunted the rabbit near the cliff",
                    "which bird hunted the rabbit ?", (4, 4), "o1",
                    "falcon", "IsA", "bird"),
        make_sample("a oak grew beside the old mill",
                    "which tree grew beside the mill ?", (1, 1), "o2",
                    "oak", "Hypernymy", "tree"),
        make_sample("the violin played a soft tune at dusk",
                    "which instrument played a soft tune ?", (1, 1), "o3",
                    "violin", "IsA", "instrument"),
        make_sample("the copper glinted inside the deep mine",
                    "which metal glinted inside the mine ?", (1, 1), "o4",
                    "copper", "IsA", "metal"),
        make_sample("the salmon swam up the cold river",
                    "which fish swam up the river ?", (1, 1), "o5",
                    "salmon", "Hyponymy", "fish"),
        make_sample("the doctor treated the child with care",
                    "which physician treated the child ?", (1, 1), "o6",
                    "doctor", "Synonymy", "physician"),
        make_sample("the lamp lit the small writing desk",
                    "what gave light to the writing desk ?", (1, 1), "o7",
                    "lamp", "RelatedTo", "light"),
        make_sample("the baker sold warm bread at dawn",
                    "who sold warm loaves of bread at dawn ?", (1, 1), "o8",
                    "bread", "Others", "loaves"),
        make_sample("the comet crossed the night sky slowly",
                    "which object crossed the night sky ?", (1, 1), "o9",
                    "comet", "IsA", "object"),
        make_sample("the kraken rose from the deep sea",
                    "what did the kraken rise from ?", (6, 6), "o10",
                    "sea", "RelatedTo", "rise"),
    ]


_POOL = ("alpha bravo canyon delta ember forest gale harbor iris jetty "
         "keel lagoon meadow north opal prairie quartz ridge summit trail "
         "umber valley willow zephyr").split()


def random_equipped_sample(rng, sid):
    plen = int(rng.integers(4, 10))
    qlen = int(rng.integers(3, 8))
    passage = [_POOL[rng.integers(len(_POOL))] for _ in range(plen)]
    question = [_POOL[rng.integers(len(_POOL))] for _ in range(qlen)]
    hi = int(rng.integers(plen))
    ti = int(rng.integers(qlen))
    rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
    trip = AlignedTriple(KnowledgeTriple(passage[hi], rel, question[ti], "ConceptNet"))
    lo = int(rng.integers(plen))
    hi2 = int(rng.integers(lo, plen))
    pos, ner = coarse_tags(passage)
    return TrainingSample(passage=passage, answer_span=(lo, hi2),
                          pos_tags=pos, ner_tags=ner, question=question,
                          triples=[trip], sample_id=sid)


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def test_01_gradient_fidelity():
    with verdict(1, "gradient fidelity: finite differences on all four losses"):
        started = time.monotonic()
        samples = overfit_corpus()[:2]
        cfg = make_config()
        vocab = build_vocab(samples, max_size=cfg.vocab_size)
        tags = build_tag_vocabs(samples)
        params = TR.build_parameters(cfg, vocab, tags,
                                     np.random.default_rng(cfg.seed))
        batch = encode_batch(samples, vocab, tags)
        worst = {}
        for name, f in cli.loss_closures(params, batch).items():
            # eps small enough that pairwise-max lane switches inside the
            # readout cannot sit between the two evaluation points
            report = grad_check(f, list(params.items()), eps=1e-6,
                                samples_per_tensor=3,
                                rng=np.random.default_rng(cfg.seed + 17))
            worst[name] = report.max_rel_err
        elapsed = time.monotonic() - started
        assert set(worst) == {"L_q", "L_r", "L_t", "L"}
        for name, err in worst.items():
            assert err < 1e-4, (name, err)
        assert elapsed < 60.0, elapsed


# ---------------------------------------------------------------------------
# 2. loss additivity


def test_02_loss_additivity():
    with verdict(2, "loss additivity: L == (L_q + L_r) + L_t on 1000 batches"):
        rng = np.random.default_rng(202)
        pool = [random_equipped_sample(rng, f"r{i}") for i in range(100)]
        cfg = make_config()
        vocab = build_vocab(pool, max_size=cfg.vocab_size)
        tags = build_tag_vocabs(pool)
        params = TR.build_parameters(cfg, vocab, tags,
                                     np.random.default_rng(cfg.seed))
        for _ in range(1000):
            picks = rng.choice(len(pool), size=2, replace=False)
            batch = encode_batch([pool[i] for i in picks], vocab, tags)
            lb = TR.unified_forward(params, batch)
            total = (float(lb.l_q.data) + float(lb.l_r.data)) + float(lb.l_t.data)
            assert float(lb.l.data) == total  # bitwise, fixed summation order


# ---------------------------------------------------------------------------
# 3. extraction oracle


def test_03_extraction_matches_brute_force():
    with verdict(3, "extraction: pipeline == brute force on the bundled corpus"):
        started = time.monotonic()
        cn = kb.load_knowledge_base(asset_path(KB_CONCEPTNET), "ConceptNet")
        wn = kb.load_knowledge_base(asset_path(KB_WORDNET), "WordNet")
        stops = kb.load_stopwords(asset_path(STOPWORDS))
        samples = load_dataset(asset_path(MINI_CORPUS))
        assert len(samples) == 20
        for s in samples:
            got = kb.extract_for_sample(s.passage, s.question, stops, [cn, wn])
            got_tuples = [(a.triple.head, a.triple.relation, a.triple.tail,
                           a.triple.source, a.swapped) for a in got]
            assert got_tuples == brute_force_extract(s.passage, s.question,
                                                     [cn, wn], stops), s.sample_id
        s01 = next(s for s in samples if s.sample_id == "s01")
        kept = {(a.triple.head, a.triple.relation, a.triple.tail)
                for a in kb.extract_for_sample(s01.passage, s01.question,
                                               stops, [cn, wn])}
        assert ("council", "RelatedTo", "governing") in kept
        assert ("council", "RelatedTo", "city") not in kept
        assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 4. alternating-phase training invariants


def test_04_alternating_phase_invariants(tmp_path):
    with verdict(4, "phase alternation: schedule honored, knowledge frozen in Pure"):
        eq = overfit_corpus()[:4]
        pure = [TrainingSample(passage=s.passage, answer_span=s.answer_span,
                               pos_tags=s.pos_tags, ner_tags=s.ner_tags,
                               question=s.question, triples=[],
                               sample_id=f"p{s.sample_id}")
                for s in overfit_corpus()[4:8]]
        cfg = make_config(itf_n=5, itf_cycles=3)
        result = TR.train(eq, pure, [], cfg, out_dir=tmp_path, mode="itf")
        want = TR.itf_schedule(5, 3)
        assert [row["phase"] for row in result.log_rows] == want
        assert len(result.phase_spans) == 6
        for span in result.phase_spans:
            assert span.hash_before["qg_core"] != span.hash_after["qg_core"]
            if span.phase == TR.PURE:
                assert span.hash_before["knowledge"] == span.hash_after["knowledge"]
            else:
                assert span.hash_before["knowledge"] != span.hash_after["knowledge"]


# ---------------------------------------------------------------------------
# 5 + 6. overfit capability and copy mechanism (one shared training run)


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    samples = overfit_corpus()
    cfg = make_config(hidden_size=64, emb_dim=32, feat_dim=8, batch_size=10,
                      lr=0.005, itf_n=2000, itf_cycles=1, beam=1, seed=13)
    full = build_vocab(samples, max_size=cfg.vocab_size)
    keep = [t for t in full.id_to_token[4:] if t != "kraken"]
    vocab = Vocabulary(keep)
    tags = build_tag_vocabs(samples)
    started = time.monotonic()
    result = TR.train(samples, [], [], cfg, out_dir=tmp_path_factory.mktemp("overfit"),
                      mode="equipped-only", vocab=vocab, tag_vocabs=tags,
                      stop_below=0.05)
    elapsed = time.monotonic() - started
    return dict(samples=samples, cfg=cfg, vocab=vocab, tags=tags,
                result=result, elapsed=elapsed)


def test_05_overfit_capability(overfit_run):
    with verdict(5, "overfit: L_q < 0.1 and 9/10 questions reproduced"):
        run = overfit_run
        rows = run["result"].log_rows
        assert len(run["vocab"]) <= 200
        assert len(rows) <= 2000
        assert min(r["l_q"] for r in rows) < 0.1
        assert run["elapsed"] < 600.0, run["elapsed"]
        hits = 0
        decoded = TR.generate(run["result"].params, run["samples"], run["vocab"],
                              run["tags"], run["cfg"], 1)
        for s, (toks, _) in zip(run["samples"], decoded):
            hits += int(toks == s.question)
        assert hits >= 9, hits


def test_06_copy_mechanism(overfit_run):
    with verdict(6, "copying: vocabulary-external token reproduced via copy"):
        run = overfit_run
        vocab, tags = run["vocab"], run["tags"]
        params = run["result"].params
        sample = next(s for s in run["samples"] if "kraken" in s.question)
        assert vocab.encode("kraken") == 1  # maps to <unk>: not generable

        batch = encode_batch([sample], vocab, tags)
        kraken_ext = len(vocab) + batch.oov_tokens[0].index("kraken")
        enc = QG.encode_passage(params, batch)
        trip = AX.encode_triples(params, batch)
        memory = QG.DecodeMemory(enc, AX.unified_memory(params, trip), batch.copy_ids,
                                 batch.extended_size, enc.bw_final)

        ids = QG.beam_search(params, "dec", memory, beam=1, max_len=run["cfg"].max_len).ids
        assert vocab.decode_ids(ids, batch.oov_tokens[0]) == sample.question
        assert kraken_ext in ids  # came out as an extended id, i.e. a copy

        # walk the gold prefix and inspect the step that must emit "kraken"
        state = QG.init_decoder_state(params, "dec", enc.bw_final)
        gold = batch.question_ids[0, :batch.question_lengths[0]]
        target = list(gold[1:]).index(kraken_ext)
        out = None
        for step in range(target + 1):
            out, state = reference_decode_step(params, "dec", gold[step:step + 1],
                                               state, memory)
        gate = float(out.p_g.data[0, 0])
        assert 0.0 < gate < 1.0
        assert float(out.p_copy.data[0, kraken_ext]) > 0.0
        assert out.p_vocab.shape[1] == len(vocab)  # no generate route to it
        assert int(np.argmax(out.p.data[0])) == kraken_ext


@pytest.mark.parametrize("beam", [1, 3, 5])
def test_generate_groups_equal_samples_decoded_alone(overfit_run, monkeypatch, beam):
    # the trained model's questions end at different steps; the first group
    # of eight mixes equipped samples with pure copies, passages of 7 and 8
    # tokens and the sample whose question copies the OOV "kraken"
    run = overfit_run
    vocab, tags, cfg = run["vocab"], run["tags"], run["cfg"]
    params = run["result"].params
    equipped = run["samples"]
    samples = [s for i in [9, *range(9)]
               for s in (replace(equipped[i], triples=[]), equipped[i])]
    assert "kraken" in samples[1].question and not samples[0].triples
    groups, beam_search_group = [], QG.beam_search_group

    def recorded(params, prefix, memories, **kwargs):
        groups.append([m.kmem is not None for m in memories])
        return beam_search_group(params, prefix, memories, **kwargs)

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)   # one lane
    monkeypatch.setattr(QG, "beam_search_group", recorded)
    decoded = TR.generate(params, samples, vocab, tags, cfg, beam)
    assert [len(g) for g in groups] == [8, 8, 4] and set(groups[0]) == {True, False}
    assert len({len(s.passage) for s in samples[:8]}) > 1
    assert len({len(toks) for toks, _ in decoded[:8]}) > 1
    for sample, (toks, score) in zip(samples, decoded):
        batch = encode_batch([sample], vocab, tags)
        with T.batch_invariant():   # as generate encodes
            enc = QG.encode_passage(params, batch)
            kmem = (AX.unified_memory(params, AX.encode_triples(params, batch))
                    if sample.triples else None)
        memory = QG.DecodeMemory(enc, kmem, batch.copy_ids, batch.extended_size,
                                 enc.bw_final)
        hyp = QG.beam_search(params, "dec", memory, beam=beam, max_len=cfg.max_len,
                             length_penalty=cfg.length_penalty)
        assert toks == vocab.decode_ids(hyp.ids, batch.oov_tokens[0])
        assert struct.pack("<d", score) == struct.pack("<d", hyp.score)
    assert "kraken" in decoded[1][0]


# ---------------------------------------------------------------------------
# 7. ablation switches


def test_07_ablation_structure(tmp_path):
    with verdict(7, "ablations: --no-tg / --no-rc zero exactly their components"):
        eq_path = tmp_path / "eq.jsonl"
        save_dataset(eq_path, overfit_corpus()[:4])
        cfg_path = tmp_path / "toy.cfg"
        cfg_path.write_text(
            "hidden_size = 3\nlayers = 1\nemb_dim = 4\nfeat_dim = 2\n"
            "dropout = 0.0\nbatch_size = 2\nitf_n = 1\nitf_cycles = 1\n"
            "eval_every = 1000\nseed = 13\n")
        for flags, zeroed in ((["--no-tg"], ("L_t",)),
                              (["--no-rc"], ("L_r",)),
                              (["--no-tg", "--no-rc"], ("L_t", "L_r"))):
            out = tmp_path / ("run" + "".join(flags))
            code = cli.main(["--config", str(cfg_path), "--out", str(out),
                             "train", "--equipped", str(eq_path),
                             "--mode", "equipped-only", *flags])
            assert code == 0
            with open(out / "train_log.csv") as fh:
                row = next(csv.DictReader(fh))
            parts = {k: float(row[k]) for k in ("L_q", "L_r", "L_t", "L")}
            for name in zeroed:
                assert parts[name] == 0.0
            assert parts["L"] == (parts["L_q"] + parts["L_r"]) + parts["L_t"]
            assert parts["L_q"] > 0.0


# ---------------------------------------------------------------------------
# 8. metric oracles


def test_08_metric_oracles():
    with verdict(8, "metrics: independent references and hand-worked values"):
        hyps = ["the falcon hunted the rabbit near the cliff",
                "a oak grew beside the mill",
                "the violin played a soft tune",
                "copper glinted in the mine",
                "the salmon swam up the river tonight"]
        refs = ["the falcon hunted the rabbit by the cliff",
                "an oak grew beside the old mill",
                "the violin played one soft tune",
                "the copper glinted in the deep mine",
                "a salmon swam down the river"]
        h_tok = [h.split() for h in hyps]
        r_tok = [r.split() for r in refs]
        want = reference_bleu(r_tok, h_tok, max_order=4)
        for order in range(1, 5):
            assert abs(ME.bleu(h_tok, r_tok, max_n=order) - want[order - 1]) < 0.1

        hand = ME.rouge_l([["the", "cat", "sat"]], [["the", "sat", "cat"]])
        assert abs(hand - 66.67) < 0.01

        same = [s.split() for s in hyps]
        for order in range(1, 5):
            assert ME.bleu(same, same, max_n=order) == 100.0
        assert ME.rouge_l(same, same) == 100.0
        assert ME.meteor_lite(same, same) == 100.0
        assert ME.tg_bleu1(same, same) == 100.0


# ---------------------------------------------------------------------------
# 9. distribution hygiene


def test_09_distribution_hygiene():
    with verdict(9, "decoding: normalized distributions, no pad attention, beam-1 == greedy"):
        rng = np.random.default_rng(909)
        pool = [random_equipped_sample(rng, f"d{i}") for i in range(100)]
        cfg = make_config()
        vocab = build_vocab(pool, max_size=cfg.vocab_size)
        tags = build_tag_vocabs(pool)
        params = TR.build_parameters(cfg, vocab, tags,
                                     np.random.default_rng(77))

        steps_done = 0
        for b in range(50):
            picks = rng.choice(len(pool), size=2, replace=False)
            batch = encode_batch([pool[i] for i in picks], vocab, tags)
            enc = QG.encode_passage(params, batch)
            kmem = None
            if b % 2 == 0:
                kmem = AX.unified_memory(params, AX.encode_triples(params, batch))
            memory = QG.DecodeMemory(enc, kmem, batch.copy_ids, batch.extended_size,
                                     enc.bw_final)
            state = QG.init_decoder_state(params, "dec", enc.bw_final)
            for _ in range(20):
                y_prev = rng.integers(0, batch.extended_size, size=2)
                out, state = reference_decode_step(params, "dec", y_prev, state, memory)
                for dist in (out.p, out.p_vocab, out.p_copy):
                    sums = dist.data.sum(axis=-1)
                    assert np.all(np.abs(sums - 1.0) <= 1e-9), sums
                assert np.all(out.p.data >= 0.0)
                alpha = out.alpha.data
                for i, ln in enumerate(batch.passage_lengths):
                    assert np.all(alpha[i, ln:] == 0.0)
                steps_done += 1
        assert steps_done == 1000

        for i in range(20):
            batch = encode_batch([pool[i]], vocab, tags)
            enc = QG.encode_passage(params, batch)
            kmem = None
            if i % 2 == 0:
                kmem = AX.unified_memory(params, AX.encode_triples(params, batch))
            memory = QG.DecodeMemory(enc, kmem, batch.copy_ids, batch.extended_size,
                                     enc.bw_final)
            greedy = reference_greedy_decode(params, "dec", memory, max_len=10)
            beam1 = QG.beam_search(params, "dec", memory, beam=1, max_len=10).ids
            assert beam1 == greedy, i


# ---------------------------------------------------------------------------
# 10. relation classification separability


def rc_sample(head, rel, tail, sid):
    toks = ["the", head, "sits", "near", "the", "gate"]
    q = ["what", "sits", "near", "the", tail, "?"]
    pos, ner = coarse_tags(toks)
    trip = AlignedTriple(KnowledgeTriple(head, rel, tail, "ConceptNet"))
    return TrainingSample(passage=toks, answer_span=(1, 1), pos_tags=pos,
                          ner_tags=ner, question=q, triples=[trip],
                          sample_id=sid)


def test_10_relation_classification_separability():
    with verdict(10, "relation classifier: 100% train, > 90% held out, beats majority"):
        rng = np.random.default_rng(13)
        train, held = [], []
        for r, rel in enumerate(RELATIONS):
            # per relation: 8 private marker tokens; held-out pairs recombine
            # markers seen in training, so the class signal transfers
            markers = [f"mk{r}{chr(97 + k)}" for k in range(8)]
            pairs = [(i, j) for i in range(8) for j in range(8) if i != j]
            rng.shuffle(pairs)
            train += [rc_sample(markers[i], rel, markers[j], f"tr{r}_{n}")
                      for n, (i, j) in enumerate(pairs[:12])]
            held += [rc_sample(markers[i], rel, markers[j], f"he{r}_{n}")
                     for n, (i, j) in enumerate(pairs[12:18])]

        cfg = make_config(hidden_size=8, emb_dim=8)
        vocab = build_vocab(train, max_size=cfg.vocab_size)
        tags = build_tag_vocabs(train)
        params = TR.build_parameters(cfg, vocab, tags,
                                     np.random.default_rng(cfg.seed))
        opt = TR.Adam(params, lr=cfg.lr)
        tb = encode_batch(train, vocab, tags)
        hb = encode_batch(held, vocab, tags)

        def accuracy(batch):
            enc = QG.encode_passage(params, batch)
            trip = AX.encode_triples(params, batch)
            y_r = AX.rc_forward(params, enc, trip)
            return ME.rc_accuracy(list(np.argmax(y_r.data, -1)), list(batch.relation_ids))

        train_acc = 0.0
        for step in range(1, 1001):
            enc = QG.encode_passage(params, tb)
            trip = AX.encode_triples(params, tb)
            loss = AX.rc_loss(AX.rc_forward(params, enc, trip), tb.relation_ids)
            params.zero_grads()
            loss.backward()
            opt.step()
            if step % 25 == 0:
                train_acc = accuracy(tb)
                if train_acc == 100.0:
                    break
        counts = np.bincount(tb.relation_ids, minlength=len(RELATIONS))
        majority = 100.0 * counts.max() / counts.sum()
        held_acc = accuracy(hb)
        assert step <= 1000
        assert train_acc == 100.0
        assert held_acc > 90.0, held_acc
        assert train_acc > majority and held_acc > majority


# ---------------------------------------------------------------------------
# 11. checkpoint averaging


def test_11_checkpoint_averaging():
    with verdict(11, "averaging: bitwise match to elementwise mean, identity on equals"):
        cfg = make_config()
        samples = overfit_corpus()[:2]
        vocab = build_vocab(samples, max_size=cfg.vocab_size)
        tags = build_tag_vocabs(samples)
        params = TR.build_parameters(cfg, vocab, tags,
                                     np.random.default_rng(3))
        base = params.state_dict()
        rng = np.random.default_rng(11)
        states = [{k: v + rng.normal(scale=0.05, size=v.shape)
                   for k, v in base.items()} for _ in range(5)]

        got = TR.average_checkpoints(states)
        for name in base:
            first = states[0][name]
            flat = [s[name].ravel() for s in states]
            want = np.empty_like(first).ravel()
            for j in range(want.size):
                acc = 0.0
                for s in flat:  # same order and grouping as the implementation
                    acc += s[j] - flat[0][j]
                want[j] = flat[0][j] + acc / len(states)
            assert np.array_equal(got[name].ravel(), want), name

        same = TR.average_checkpoints([{k: v.copy() for k, v in states[2].items()}
                                       for _ in range(5)])
        for name in base:
            assert np.array_equal(same[name], states[2][name]), name
