"""The workloads' inputs, made from the benchmark seed with the package's
own synthetic generator, plus the detector checkpoints they load.

File sizes are stratified rather than drawn: file i of n gets size
lo + (hi - lo) * i // (n - 1) (within the few hundred bytes the PE builder
adds), and labels alternate.  Per-file cost follows file length, so drawn
sizes would make every throughput figure move with the seed; stratified
sizes leave the seed to choose the bytes only.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

import numpy as np

from chunksmooth import corpus, neural
from chunksmooth.ablation import AblationConfig
from chunksmooth.smoothing import DetectorSpec

MODELS = Path(__file__).resolve().parent / "models"
SIZE_MIN, SIZE_MAX = 24576, 65536  # gen-corpus defaults
SCHEME_P = 0.05
N_VIEWS = 100


def derive_seed(seed: int, *salt: int) -> int:
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0])


def stratified_sizes(n: int) -> list[int]:
    return [SIZE_MIN + (SIZE_MAX - SIZE_MIN) * i // (n - 1) for i in range(n)]


def synth_files(out_dir: Path, sizes: list[int], labels: list[str], seed: int) -> tuple[corpus.CorpusManifest, float]:
    """One generator call per file, each with its own exact size, label and
    seed; manifest timestamps follow file order.  Also returns the seconds
    spent in the generator."""
    out_dir.mkdir(parents=True)
    entries = []
    seconds = 0.0
    for i, (size, label) in enumerate(zip(sizes, labels)):
        gen_dir = out_dir / f"gen{i}"
        cfg = corpus.SynthConfig(
            n_files=1,
            size_range=(size, size),
            malicious_ratio=1.0 if label == corpus.LABEL_MALICIOUS else 0.0,
            seed=derive_seed(seed, i),
        )
        t0 = time.perf_counter()
        made, _ = corpus.synth_corpus(cfg, gen_dir)
        seconds += time.perf_counter() - t0
        name = f"{i:05d}.bin"
        os.replace(gen_dir / made.entries[0].path, out_dir / name)
        gen_dir.rmdir()
        entries.append(corpus.ManifestEntry(name, label, 1_600_000_000 + 60 * i, made.entries[0].sha256))
    manifest = corpus.CorpusManifest(tuple(entries), root=out_dir)
    corpus.write_manifest(manifest, out_dir / "manifest.csv")
    return manifest, seconds


def alternating_labels(n: int) -> list[str]:
    return [corpus.LABEL_MALICIOUS if i % 2 == 0 else corpus.LABEL_BENIGN for i in range(n)]


def sub_manifest(out_dir: Path, source: corpus.CorpusManifest, indices: list[int]) -> corpus.CorpusManifest:
    """A corpus directory whose manifest lists some files of another one."""
    out_dir.mkdir(parents=True)
    entries = tuple(
        corpus.ManifestEntry(
            os.path.relpath(source.resolve(source.entries[i]), out_dir),
            source.entries[i].label,
            source.entries[i].timestamp,
            source.entries[i].sha256,
        )
        for i in indices
    )
    manifest = corpus.CorpusManifest(entries, root=out_dir)
    corpus.write_manifest(manifest, out_dir / "manifest.csv")
    return manifest


def spec_for(kind: str) -> DetectorSpec:
    if kind == "ns":
        return DetectorSpec(kind="ns")
    return DetectorSpec(kind=kind, ablation=AblationConfig(scheme=kind, p=SCHEME_P, n_views=N_VIEWS))


def checkpoints(out_dir: Path, kinds: tuple[str, ...]) -> dict[str, Path]:
    """ns and sca are the committed checkpoints.  rca and rs reuse the sca
    weights under their own detector settings: both chunk schemes train
    identically, and rs is measured for cost only."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind in kinds:
        path = out_dir / f"{kind}.bin"
        if kind in ("ns", "sca"):
            shutil.copyfile(MODELS / f"{kind}.bin", path)
        else:
            params, _ = neural.load_checkpoint(MODELS / "sca.bin")
            neural.save_checkpoint(path, params, spec_for(kind).meta())
        paths[kind] = path
    return paths
