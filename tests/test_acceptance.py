"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete. Every tolerance is pinned here, not configurable.
"""

import time
from collections import Counter

import numpy as np
import scipy.stats

from concat_augment.augment import Strategy, length_filter, plan_epoch
from concat_augment.batching import compose_batches, padding_waste
from concat_augment.batchio import read_batch_file
from concat_augment.features import FeatureConfig, compute_logmel
from concat_augment.manifest import build_speaker_index
from concat_augment.pipeline import PipelineConfig, audit, iter_epoch_batches, run
from concat_augment.rng import keyed_rng
from concat_augment.specaugment import MaskPolicy, mask_in_place

from conftest import synth_utterances, write_audio_corpus
from dft_oracle import oracle_logmel
from test_pipeline import read_tree, strip_timings

ORACLE_REL_TOL = 1e-6
FILTER_TOL = 0.01
MAX_FRAMES = 3000
BUDGET = 40000
FEATURE_RT_FACTOR = 50.0

ORACLE_TIME_LIMIT_S = 120.0
CONCAT_TIME_LIMIT_S = 60.0
E2E_TIME_LIMIT_S = 300.0
AUDIT_TIME_LIMIT_S = 10.0


def _report(num: int, desc: str, checks: dict) -> None:
    passed = all(checks.values())
    print(f"[acceptance] criterion {num}: {'PASS' if passed else 'FAIL'} - {desc}")
    assert passed, f"criterion {num} failed: " + ", ".join(k for k, v in checks.items() if not v)


def test_criterion_1_feature_oracle_equivalence():
    rng = np.random.default_rng(101)
    cfg = FeatureConfig()
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(cfg.win_samples, 8000))  # up to 0.5 s at 16 kHz
        pcm = rng.uniform(-1.0, 1.0, size=n)
        ours = compute_logmel(pcm, cfg)
        ref = oracle_logmel(pcm)
        rel = np.abs(ours - ref) / np.abs(ref)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    _report(
        1,
        f"feature-oracle equivalence (200 clips, worst rel err {worst:.2e}, {elapsed:.1f}s)",
        {
            "relative error <= 1e-6": worst <= ORACLE_REL_TOL,
            "runtime < 2 min": elapsed < ORACLE_TIME_LIMIT_S,
        },
    )


def test_criterion_2_concatenation_invariants():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    checked = 0
    frame_ok = target_ok = purity_ok = tokens_ok = True
    trial = 0
    while checked < 10_000:
        trial += 1
        utts = synth_utterances(
            400, 8, 3, 30, rng, tokens_per_target=int(rng.integers(1, 8))
        )
        by_id = {u.id: u for u in utts}
        index = build_speaker_index(utts)
        kind = ("self", "speaker", "random")[trial % 3]
        strategy = Strategy(kind)
        plan = plan_epoch(utts, index, strategy, seed=trial, epoch=trial % 7)
        # no filter: every plan row survives, in plan order
        survivors = length_filter(plan, utts.n_frames, 2**62, include_original=False)
        for r in range(len(survivors)):
            parts = [by_id[c] for c in survivors.constituents(r)]
            target = survivors.target(r, utts.targets)
            frame_ok &= survivors.frames[r] == sum(p.n_frames for p in parts)
            target_ok &= len(target) == sum(len(p.target) for p in parts)
            allowed = set().union(*(set(p.target) for p in parts))
            tokens_ok &= set(target) <= allowed
            if kind == "speaker":
                purity_ok &= len({p.speaker_id for p in parts}) == 1
            checked += 1
            if checked >= 10_000:
                break
    elapsed = time.perf_counter() - started
    _report(
        2,
        f"concatenation invariants ({checked} concatenations, {elapsed:.1f}s)",
        {
            "frame additivity exact": frame_ok,
            "target-length additivity exact": target_ok,
            "speaker purity 100%": purity_ok,
            "no new tokens": tokens_ok,
            "runtime < 1 min": elapsed < CONCAT_TIME_LIMIT_S,
        },
    )


def test_criterion_3_plan_determinism_and_uniformity():
    rng = np.random.default_rng(303)
    utts = synth_utterances(1000, 20, 5, 50, rng)
    index = build_speaker_index(utts)
    all_ids = {u.id for u in utts}

    deterministic = True
    covered = True
    keys = [(int(rng.integers(0, 2**32)), int(rng.integers(0, 1000))) for _ in range(100)]
    strategies = (Strategy("self"), Strategy("speaker"), Strategy("random"))
    for i, (seed, epoch) in enumerate(keys):
        strategy = strategies[i % 3]
        first = plan_epoch(utts, index, strategy, seed, epoch)
        second = plan_epoch(utts, index, strategy, seed, epoch)
        deterministic &= first.pairings == second.pairings
        deterministic &= first.excluded == second.excluded
        deterministic &= np.array_equal(first.anchors, second.anchors)
        deterministic &= np.array_equal(first.partners, second.partners)
        anchors = [a for a, _ in first.pairings]
        covered &= len(anchors) == len(set(anchors))
        covered &= set(anchors) | {e for e, _ in first.excluded} == all_ids

    # partner frequencies over 10k simulated epochs of the random strategy
    id_pos = {u.id: i for i, u in enumerate(utts)}
    counts = np.zeros(len(utts), dtype=np.int64)
    for epoch in range(10_000):
        plan = plan_epoch(utts, None, Strategy("random"), seed=424242, epoch=epoch)
        for _, partners in plan.pairings:
            counts[id_pos[partners[0]]] += 1
    expected = counts.sum() / len(counts)
    chi2_stat = float(((counts - expected) ** 2 / expected).sum())
    threshold = float(scipy.stats.chi2.ppf(0.99, len(counts) - 1))

    _report(
        3,
        f"plan determinism + coverage + uniformity (chi2 {chi2_stat:.1f} "
        f"< {threshold:.1f} at 99%, df={len(counts) - 1})",
        {
            "plans byte-identical across reruns": deterministic,
            "anchors covered exactly once": covered,
            "chi-square uniformity at 99%": chi2_stat < threshold,
        },
    )


def test_criterion_4_filter_fidelity():
    rng = np.random.default_rng(404)
    utts = synth_utterances(2000, 10, 1400, 1600, rng)
    by_id = {u.id: u for u in utts}
    lengths = np.array([u.n_frames for u in utts])

    # observed filter loss over 100 planned epochs
    strategy = Strategy("random")
    planned = dropped = 0
    none_overlong = True
    for epoch in range(100):
        plan = plan_epoch(utts, None, strategy, seed=1717, epoch=epoch)
        result = length_filter(plan, lengths, MAX_FRAMES, include_original=False)
        planned += len(plan.pairings)
        dropped += result.dropped_augmented
        recount = [
            sum(by_id[c].n_frames for c in result.constituents(r)) for r in range(len(result))
        ]
        none_overlong &= recount == result.frames.tolist()
        none_overlong &= all(n <= MAX_FRAMES for n in recount)
    observed = dropped / planned

    # Monte-Carlo oracle: anchor uniform over the corpus, partner uniform
    # over the rest; estimate P[len_i + len_j > 3000] directly
    oracle_rng = np.random.default_rng(990099)
    trials = 500_000
    n = len(lengths)
    anchors = oracle_rng.integers(0, n, size=trials)
    gaps = oracle_rng.integers(0, n - 1, size=trials)
    partners = gaps + (gaps >= anchors)
    estimate = float(np.mean(lengths[anchors] + lengths[partners] > MAX_FRAMES))

    _report(
        4,
        f"filter fidelity (observed loss {observed:.4f}, oracle {estimate:.4f})",
        {
            "zero survivors over 3000 frames": none_overlong,
            "loss within 1% of Monte-Carlo oracle": abs(observed - estimate) <= FILTER_TOL,
        },
    )


def test_criterion_5_batch_contract():
    rng = np.random.default_rng(505)
    corpus = synth_utterances(10_000, 10, 100, 2900, rng)
    frames = np.array([u.n_frames for u in corpus])
    groups = compose_batches(frames, BUDGET, seed=31, epoch=0)
    budget_ok = all(len(g) * frames[g].max() <= BUDGET for g in groups)
    emitted = Counter(corpus[p].id for g in groups for p in g)
    partition_ok = emitted == Counter(u.id for u in corpus)

    waste_ok = True
    for trial in range(20):
        sub_rng = np.random.default_rng(600 + trial)
        sub = sub_rng.integers(20, 2500, size=400)
        bucketed = padding_waste(compose_batches(sub, BUDGET, trial, 0, bucketing=True), sub)
        loose = padding_waste(compose_batches(sub, BUDGET, trial, 0, bucketing=False), sub)
        waste_ok &= bucketed <= loose

    _report(
        5,
        f"batch contract (10k instances, {len(groups)} batches, budget {BUDGET})",
        {
            "B*T_max <= budget for every batch": budget_ok,
            "epoch partition property": partition_ok,
            "bucketed waste <= unbucketed on 20 corpora": waste_ok,
        },
    )


def test_criterion_6_specaugment_policy():
    policy = MaskPolicy()  # F=27, T=100, 2+2 masks
    rng = np.random.default_rng(606)
    bounds_ok = preserved_ok = True
    for i in range(1000):
        t = int(rng.integers(210, 400))  # masks can never cover everything
        feats = rng.uniform(1.0, 2.0, size=(t, 80))
        out = feats.copy()
        mask_in_place(out, policy, keyed_rng(7, 6, i))
        changed = out != feats
        full_rows = np.where(changed.all(axis=1))[0]
        full_cols = np.where(changed.all(axis=0))[0]
        bounds_ok &= len(full_cols) <= policy.n_freq_masks * policy.freq_param
        bounds_ok &= len(full_rows) <= policy.n_time_masks * policy.time_param
        keep_rows = np.setdiff1d(np.arange(t), full_rows)
        keep_cols = np.setdiff1d(np.arange(80), full_cols)
        preserved_ok &= np.array_equal(
            out[np.ix_(keep_rows, keep_cols)], feats[np.ix_(keep_rows, keep_cols)]
        )

    identity_in = rng.uniform(1.0, 2.0, size=(150, 80))
    identity_out = identity_in.copy()
    mask_in_place(identity_out, MaskPolicy(n_freq_masks=0, n_time_masks=0), keyed_rng(1, 2))
    identity_ok = np.array_equal(identity_in, identity_out)

    _report(
        6,
        "specaugment policy F=27 T=100 2+2 (1000 applications)",
        {
            "mask extent bounds": bounds_ok,
            "non-mask preservation": preserved_ok,
            "identity when counts are 0": identity_ok,
        },
    )


def test_criterion_7_end_to_end_reproducibility(tmp_path):
    rng = np.random.default_rng(707)
    manifest = write_audio_corpus(tmp_path / "corpus", 1000, rng, frames_lo=5, frames_hi=50)
    started = time.perf_counter()

    def one_run(out_dir):
        config = PipelineConfig(
            manifest_path=manifest,
            out_dir=out_dir,
            audio_root=manifest.parent,
            strategy=Strategy("random"),
            seed=2024,
            epochs=3,
            max_frames=MAX_FRAMES,
            budget_frames=BUDGET,
            specaugment=MaskPolicy(),
        )
        return run(config)

    report_a = one_run(tmp_path / "run_a")
    elapsed_one = time.perf_counter() - started
    report_b = one_run(tmp_path / "run_b")
    identical = read_tree(tmp_path / "run_a") == read_tree(tmp_path / "run_b")
    reports_match = strip_timings(report_a.to_dict()) == strip_timings(report_b.to_dict())
    report_a.check_consistency()

    overlong = 0
    frames_on_disk = 0
    for path in sorted((tmp_path / "run_a").rglob("*.cabx")):
        batch = read_batch_file(path)
        overlong += sum(1 for n in batch.feature_lengths if n > MAX_FRAMES)
        frames_on_disk += sum(batch.feature_lengths)

    _report(
        7,
        f"end-to-end reproducibility (1k utterances, 3 epochs, {elapsed_one:.1f}s/run)",
        {
            "batch artifacts byte-identical": identical,
            "reports identical modulo timings": reports_match,
            "no emitted instance over 3000 frames": overlong == 0,
            "report frame totals match artifacts": frames_on_disk
            == report_a.totals["total_frames_emitted"],
            "runtime < 5 min": elapsed_one < E2E_TIME_LIMIT_S,
        },
    )


def test_criterion_8_ablation_fidelity(tmp_path):
    rng = np.random.default_rng(808)
    manifest = write_audio_corpus(tmp_path / "corpus", 60, rng, n_speakers=6)

    config = PipelineConfig(
        manifest_path=manifest,
        audio_root=manifest.parent,
        include_original=False,
        strategy=Strategy("random"),
        seed=55,
        epochs=1,
        budget_frames=BUDGET,
    )
    single_provenance = 0
    emitted = 0
    for batch in iter_epoch_batches(config, epoch=0):
        for provenance in batch.instance_ids:
            emitted += 1
            if len(provenance) < 2:
                single_provenance += 1

    # second corpus with singleton speakers so exclusions are non-zero
    sparse_manifest = write_audio_corpus(
        tmp_path / "sparse", 60, np.random.default_rng(809), n_speakers=40
    )
    ratio_ok = True
    exclusions_seen = 0
    for kind in ("self", "speaker", "random"):
        for path in (manifest, sparse_manifest):
            report = audit(
                PipelineConfig(
                    manifest_path=path,
                    audio_root=path.parent,
                    strategy=Strategy(kind),
                    seed=56,
                    epochs=2,
                )
            )
            for epoch in report.epochs:
                ratio_ok &= (
                    epoch["planned"] == epoch["originals_in"] - epoch["excluded_by_strategy"]
                )
                exclusions_seen += epoch["excluded_by_strategy"]
    ratio_ok &= exclusions_seen > 0  # the speaker strategy must actually exclude some

    _report(
        8,
        f"ablation fidelity ({emitted} augmented-only instances audited)",
        {
            "no single-utterance provenance without originals": single_provenance == 0,
            "anchor-based 1:1 ratio up to exclusions": ratio_ok,
        },
    )


def test_criterion_9_throughput(tmp_path):
    rng = np.random.default_rng(909)
    rows = ["id\taudio\tn_frames\ttgt_text\tspeaker"]
    frames = rng.integers(100, 2900, size=100_000)
    for i in range(100_000):
        rows.append(f"u{i:06d}\tu{i:06d}.npy\t{frames[i]}\t1 2 3 4\tspk{i % 500:04d}")
    manifest = tmp_path / "big.tsv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")

    started = time.perf_counter()
    report = audit(
        PipelineConfig(
            manifest_path=manifest,
            strategy=Strategy("random"),
            seed=77,
            epochs=1,
            max_frames=MAX_FRAMES,
            budget_frames=BUDGET,
        )
    )
    audit_elapsed = time.perf_counter() - started
    audit_ok = audit_elapsed < AUDIT_TIME_LIMIT_S and report.epochs[0]["batch_count"] > 0

    audio_seconds = 60.0
    pcm = rng.uniform(-1.0, 1.0, size=int(audio_seconds * 16000))
    cfg = FeatureConfig()
    started = time.perf_counter()
    compute_logmel(pcm, cfg)
    dsp_elapsed = time.perf_counter() - started
    speedup = audio_seconds / dsp_elapsed

    _report(
        9,
        f"throughput (100k-row audit {audit_elapsed:.2f}s, feature extraction "
        f"{speedup:.0f}x real-time)",
        {
            "audit of 100k rows < 10 s": audit_ok,
            "feature extraction >= 50x real-time": speedup >= FEATURE_RT_FACTOR,
        },
    )
