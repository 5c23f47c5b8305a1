"""The three workloads: scan, attack and train.

Each one runs rounds of in-process ``chunksmooth.cli.main`` calls, one at a
time (a closed loop with one client).  A round always makes the same calls
on the same inputs, so its outputs repeat exactly: the first round's
outputs are checked against the independent computations of reference.py
and tests/_oracles.py, later rounds against the first round's outputs.

Every workload reports, per round, the cost per item of work of the plain
(ns) and the smoothed (sca) detector, where an item is what the workload
feeds the detector: a file for scan, an oracle query for attack, an epoch
for train.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from chunksmooth import corpus, harness, neural, pe, smoothing
from chunksmooth.smoothing import DetectorSpec

import inputs
from reference import SCORE_TOL, RefModel, confusion, expect, sca_windows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from _oracles import bytes_match_outside, insertion_recovers, padding_recovers, tally_oracle  # noqa: E402

# Lowest clean accuracy accepted on the 48-file scan corpus.  Over 20 seeds
# the committed checkpoints scored at least 1.0 (ns), 0.979 (sca) and
# 0.958 (rca).
ACCURACY_FLOOR = {"ns": 0.95, "sca": 0.90, "rca": 0.875}


def _strip_wall_clock(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in ("seconds", "seconds_per_example")}


class Scan:
    """evaluate over a 48-file corpus with ns, sca and rca, evaluate rs on a
    4-file subset (rs costs about 25x sca per file), evaluate sca on an
    8-file subset and classify each of those files alone with sca."""

    name = "scan"
    N_FILES = 48
    SUBSET = (0, 7, 12, 19, 24, 31, 36, 43)  # both labels, spread over the size range
    RS_SUBSET = (7, 12, 31, 36)  # mean size near the corpus mean
    N_CHECKED_VIEWS = 24

    def setup(self, d: Path, seed: int) -> dict:
        full, synth_s = inputs.synth_files(
            d / "corpus", inputs.stratified_sizes(self.N_FILES), inputs.alternating_labels(self.N_FILES),
            inputs.derive_seed(seed, 1),
        )
        subset = inputs.sub_manifest(d / "subset", full, list(self.SUBSET))
        inputs.sub_manifest(d / "rs", full, list(self.RS_SUBSET))
        inputs.sub_manifest(d / "warm", full, [self.N_FILES - 1])
        return {"dir": d, "full": full, "subset": subset, "seed": seed, "synth_files": self.N_FILES,
                "synth_s": synth_s, "models": inputs.checkpoints(d / "models", ("ns", "sca", "rca", "rs"))}

    def _evaluate(self, run, inp, kind, where):
        got = run.cli(["evaluate", "--model", str(inp["models"][kind]), "--corpus", str(inp["dir"] / where),
                       "--split", "all"])
        return (got[0], json.loads(got[1])) if got else (None, None)

    def _classify(self, run, inp, path):
        got = run.cli(["classify", "--model", str(inp["models"]["sca"]), str(path)])
        return (got[0], json.loads(got[1])) if got else (None, None)

    def warmup(self, run, inp) -> None:
        for kind in ("ns", "sca", "rca", "rs"):
            self._evaluate(run, inp, kind, "warm")
        self._classify(run, inp, inp["full"].resolve(inp["full"].entries[-1]))

    def round(self, run, inp):
        out, stage = {}, defaultdict(list)
        for kind in ("ns", "sca", "rca"):
            dt, out[kind] = self._evaluate(run, inp, kind, "corpus")
            if dt is not None:
                stage[f"{kind}_ms_per_file"].append(1e3 * dt / self.N_FILES)
        dt, out["rs"] = self._evaluate(run, inp, "rs", "rs")
        if dt is not None:
            stage["rs_ms_per_file"].append(1e3 * dt / len(self.RS_SUBSET))
        _, out["sca_subset"] = self._evaluate(run, inp, "sca", "subset")
        out["classify"] = []
        for entry in inp["subset"].entries:
            dt, rec = self._classify(run, inp, inp["subset"].resolve(entry))
            out["classify"].append(rec)
            if dt is not None:
                stage["classify_sca_ms"].append(1e3 * dt)
        per_item = {"ns": stage["ns_ms_per_file"], "sca": stage["sca_ms_per_file"]}
        return out, per_item, stage

    def comparable(self, out):
        return {k: (v if k == "classify" else _strip_wall_clock(v) if v else v) for k, v in out.items()}

    def check(self, out, inp) -> None:
        full, subset = inp["full"], inp["subset"]
        for kind in ("ns", "sca", "rca", "rs", "sca_subset"):
            rep = out[kind]
            expect(rep is not None, f"evaluate {kind} produced no report")
            want = {"rs": len(self.RS_SUBSET), "sca_subset": len(self.SUBSET)}.get(kind, len(full.entries))
            expect(rep["n"] == want, f"evaluate {kind}: n={rep['n']}, expected {want}")
            expect(rep["tp"] + rep["fp"] + rep["tn"] + rep["fn"] == rep["n"], f"evaluate {kind}: confusion counts do not sum to n")
        for kind, floor in ACCURACY_FLOOR.items():
            expect(out[kind]["accuracy"] >= floor, f"{kind} clean accuracy {out[kind]['accuracy']} below {floor}")

        records = out["classify"]
        expect(all(records), "a classify call produced no record")
        truth = [e.label for e in subset.entries]
        got = confusion(truth, [r["label"] for r in records])
        want = {k: out["sca_subset"][k] for k in ("tp", "fp", "tn", "fn")}
        expect(got == want, f"classify labels give {got}, evaluate on the same files gives {want}")

        ref = RefModel(inputs.MODELS / "sca.bin")
        files = [corpus.load_capped(subset.resolve(e)) for e in subset.entries]
        for rec, data in zip(records, files):
            chunks = rec["per_chunk"]
            expect(rec["L"] == inputs.N_VIEWS and len(chunks) == inputs.N_VIEWS, "classify: wrong number of views")
            expect([(c["start"], c["end"]) for c in chunks] == sca_windows(len(data), str(inputs.SCHEME_P), inputs.N_VIEWS),
                   f"classify {rec['file']}: sca windows differ from start_i = floor(i(l-g)/(L-1))")
            votes, probs, label = tally_oracle([c["score"] for c in chunks])
            expect((rec["votes"], rec["probabilities"], rec["label"]) == (votes, probs, label),
                   f"classify {rec['file']}: vote differs from the tally oracle")
            expect(all(c["vote"] == ("malicious" if c["score"] >= 0.5 else "benign") for c in chunks),
                   f"classify {rec['file']}: a chunk vote differs from its score")

        rng = np.random.default_rng([inp["seed"], 2])
        for _ in range(self.N_CHECKED_VIEWS):
            f = int(rng.integers(len(records)))
            c = records[f]["per_chunk"][int(rng.integers(inputs.N_VIEWS))]
            want = ref.score(files[f][c["start"] : c["end"]])
            expect(abs(want - c["score"]) <= SCORE_TOL,
                   f"view {c['start']}:{c['end']} of {records[f]['file']}: score {c['score']} vs reference {want}")
            if abs(want - 0.5) > SCORE_TOL:
                expect((c["vote"] == "malicious") == (want >= 0.5), "a view vote differs from the reference vote")


class Attack:
    """The criterion-6 campaigns, padding (n_pad=10000) and shift
    (extension=4096), against ns over 12 malicious targets and against sca
    over 3 of them, all of one fixed size, with a fixed GA budget.  ns
    mostly evades in the first generation, so it gets more targets: how
    many of them take the whole budget then moves its per-query figure
    less from seed to seed."""

    name = "attack"
    N_TARGETS = {"ns": 12, "sca": 3}
    TARGET_SIZE = 32768
    POPULATION = 10
    GENERATIONS = 5
    CAMPAIGNS = (("padding", "n_pad", 10000), ("shift", "extension", 4096))

    def setup(self, d: Path, seed: int) -> dict:
        n = self.N_TARGETS["ns"]
        targets, synth_s = inputs.synth_files(
            d / "ns", [self.TARGET_SIZE] * n, [corpus.LABEL_MALICIOUS] * n, inputs.derive_seed(seed, 3)
        )
        inputs.sub_manifest(d / "sca", targets, list(range(self.N_TARGETS["sca"])))
        return {"dir": d, "targets": targets, "seed": seed, "synth_files": n, "synth_s": synth_s,
                "models": inputs.checkpoints(d / "models", ("ns", "sca"))}

    def _campaign(self, run, inp, attack, key, value, kind, generations):
        out = inp["dir"] / "out" / f"{attack}-{kind}.jsonl"
        adv = inp["dir"] / "adv" / f"{attack}-{kind}"
        out.parent.mkdir(exist_ok=True)
        got = run.cli([
            "attack", "--model", str(inp["models"][kind]), "--corpus", str(inp["dir"] / kind),
            "--attack", attack, "--param", f"{key}={value}", "--n-files", str(self.N_TARGETS[kind]),
            "--population", str(self.POPULATION), "--generations", str(generations),
            "--seed", str(inp["seed"]), "--out", str(out), "--adv-dir", str(adv),
        ])
        if not got:
            return None, None
        return got[0], harness.read_jsonl(out)

    def warmup(self, run, inp) -> None:
        for attack, key, value in self.CAMPAIGNS:
            for kind in ("ns", "sca"):
                self._campaign(run, inp, attack, key, value, kind, 1)

    def round(self, run, inp):
        out = {}
        spent = {"ns": [0.0, 0], "sca": [0.0, 0]}
        for attack, key, value in self.CAMPAIGNS:
            for kind in ("ns", "sca"):
                dt, records = self._campaign(run, inp, attack, key, value, kind, self.GENERATIONS)
                out[(attack, kind)] = records
                if records is not None:
                    spent[kind][0] += dt
                    spent[kind][1] += sum(r["queries"] for r in records)
                    adv_dir = inp["dir"] / "adv" / f"{attack}-{kind}"
                    out[(attack, kind, "adv")] = {p.name: p.read_bytes() for p in sorted(adv_dir.iterdir())}
        per_item = {k: [1e3 * t / q] if q else [] for k, (t, q) in spent.items()}
        return out, per_item, defaultdict(list)

    def comparable(self, out):
        return out

    def check(self, out, inp) -> None:
        budget = self.POPULATION * self.GENERATIONS
        models = {}
        for kind in ("ns", "sca"):
            params, meta = neural.load_checkpoint(inp["models"][kind])
            models[kind] = (params, DetectorSpec.from_meta(meta["detector"]))
        originals = {e.sha256: corpus.load_capped(inp["targets"].resolve(e)) for e in inp["targets"].entries}
        both = {e.sha256 for e in inp["targets"].entries[: self.N_TARGETS["sca"]]}
        accuracy = {}
        for attack, key, value in self.CAMPAIGNS:
            for kind in ("ns", "sca"):
                records = out[(attack, kind)]
                expect(records is not None and len(records) == self.N_TARGETS[kind], f"{attack} vs {kind}: missing records")
                for rec in records:
                    where = f"{attack} vs {kind}, {rec['sha256'][:12]}"
                    q = rec["queries"]
                    expect(q % self.POPULATION == 0 and self.POPULATION <= q <= budget,
                           f"{where}: {q} queries is not population x generations run")
                    expect(rec["evaded"] or q == budget, f"{where}: not evaded after {q} of {budget} queries")
                    adv = out[(attack, kind, "adv")][f"{rec['sha256'][:16]}.adv.bin"]
                    orig = originals[rec["sha256"]]
                    spans = [tuple(s) for s in rec["payload_spans"]]
                    layout = pe.parse_pe(adv)
                    if attack == "padding":
                        expect(padding_recovers(orig, adv, spans, value), f"{where}: original content not kept")
                    else:
                        base = pe.parse_pe(orig)
                        exempt = [(base.section_entry_offset(i) + 20, base.section_entry_offset(i) + 24)
                                  for i in range(base.num_sections)]
                        exempt.append((base.opt_header_offset + 60, base.opt_header_offset + 64))
                        expect(bytes_match_outside(insertion_recovers(orig, adv, spans), orig, exempt),
                               f"{where}: removing the gap does not give back the original")
                        expect(pe.section_contents(adv, layout) == pe.section_contents(orig, base),
                               f"{where}: section contents changed")
                    params, spec = models[kind]
                    fresh = smoothing.predict(params, spec, adv)
                    expect((fresh == corpus.LABEL_BENIGN) == rec["evaded"],
                           f"{where}: record says evaded={rec['evaded']}, a fresh call says {fresh}")
                common = [r for r in records if r["sha256"] in both]
                accuracy[(attack, kind)] = 1 - sum(r["evaded"] for r in common) / len(common)
        gap = accuracy[("padding", "sca")] - accuracy[("padding", "ns")]
        expect(gap >= 0.20, f"padding: sca adversarial accuracy beats ns by {gap:.2f}, less than 0.20")


class Train:
    """train ns and sca for a fixed number of epochs on a 48-file corpus;
    patience is epochs - 1, so early stopping cannot end a run early.  At
    the CLI's default lr 1e-3, four epochs of sca on single 5% chunks leave
    the loss at ln 2 give or take noise (batch 8, 2 or 1 alike); with lr 0.01
    and batch 4 the loss falls on every seed tried."""

    name = "train"
    N_FILES = 48
    EPOCHS = 4
    BATCH = 4
    LR = "0.01"
    VAL_ACC = re.compile(r"kept epoch (\d+) \(val acc ([0-9.]+),")

    def __init__(self):
        # train_smoothed returns the per-epoch losses the CLI does not
        # print; keep the last history for the checks.
        self.histories: list = []
        original = smoothing.train_smoothed

        def keep_history(*args, **kwargs):
            result = original(*args, **kwargs)
            self.histories.append(result[1])
            return result

        smoothing.train_smoothed = keep_history

    def setup(self, d: Path, seed: int) -> dict:
        _, synth_s = inputs.synth_files(
            d / "corpus", inputs.stratified_sizes(self.N_FILES), inputs.alternating_labels(self.N_FILES),
            inputs.derive_seed(seed, 4),
        )
        return {"dir": d, "seed": seed, "synth_files": self.N_FILES, "synth_s": synth_s}

    def _train(self, run, inp, kind, epochs):
        self.histories.clear()
        out = inp["dir"] / f"{kind}.bin"
        got = run.cli([
            "train", "--corpus", str(inp["dir"] / "corpus"), "--out", str(out), "--detector", kind,
            "--max-epochs", str(epochs), "--patience", str(epochs - 1), "--batch-size", str(self.BATCH),
            "--lr", self.LR, "--seed", str(inp["seed"]),
        ])
        if not got:
            return None, None
        history = self.histories[-1] if self.histories else None
        return got[0], (got[1], history, out.read_bytes())

    def warmup(self, run, inp) -> None:
        for kind in ("ns", "sca"):
            self._train(run, inp, kind, 2)

    def round(self, run, inp):
        out, per_item = {}, {}
        for kind in ("ns", "sca"):
            dt, out[kind] = self._train(run, inp, kind, self.EPOCHS)
            per_item[kind] = [1e3 * dt / self.EPOCHS] if dt is not None else []
        return out, per_item, defaultdict(list)

    def comparable(self, out):
        # the printed line carries minutes per epoch, a wall-clock figure
        return {k: (re.sub(r", [0-9.]+ min/epoch", "", v[0]), v[1].epoch_losses, v[2]) if v else v for k, v in out.items()}

    def check(self, out, inp) -> None:
        val = corpus.temporal_split(corpus.read_manifest(inp["dir"] / "corpus" / "manifest.csv"))[1]
        for kind in ("ns", "sca"):
            expect(out[kind] is not None, f"train {kind} failed")
            text, history, _ = out[kind]
            expect(history is not None and history.stopped_epoch == self.EPOCHS,
                   f"train {kind}: ran {history.stopped_epoch if history else 0} of {self.EPOCHS} epochs")
            losses = history.epoch_losses
            expect(all(math.isfinite(x) for x in losses), f"train {kind}: non-finite epoch loss in {losses}")
            expect(losses[-1] < losses[0], f"train {kind}: last epoch loss {losses[-1]} not below the first {losses[0]}")
            m = self.VAL_ACC.search(text)
            expect(m is not None, f"train {kind}: no validation accuracy in {text!r}")
            best = history.val_accuracies[history.best_epoch - 1]
            expect(int(m.group(1)) == history.best_epoch and m.group(2) == f"{best:.4f}",
                   f"train {kind}: printed {m.group(0)!r}, history says epoch {history.best_epoch} at {best}")
            params, meta = neural.load_checkpoint(inp["dir"] / f"{kind}.bin")
            again = harness.evaluate(params, DetectorSpec.from_meta(meta["detector"]), val).accuracy
            expect(again == best, f"train {kind}: reloaded checkpoint scores {again} on validation, reported {best}")


WORKLOADS = {w.name: w for w in (Scan, Attack, Train)}
