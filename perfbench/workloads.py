"""The benchmark's workloads, the operations it times and the checks on their outputs.

Every workload runs the same closed loop, one operation at a time in one
process: set-up (generate, split and write the dataset), then cycles of
`xnesyl train`, `xnesyl eval` and a fixed list of `xnesyl explain` calls,
each through `xnesyl.cli.main` in-process. The workloads differ only in
the data they generate and the training flags. README.md says why each
one exists and which layer dominates it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from xnesyl import cli, datagen
from xnesyl.alignment import SAG, shap_ged
from xnesyl.kg import monumai_kg, save_kg

FEATURE_DIM = 8
EFFICIENCY_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    count: int
    regions: tuple[int, int]
    noise: float
    separation: float
    train: dict
    explains: int

    def train_argv(self, seed: int) -> list[str]:
        argv = []
        for key, value in self.train.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        return argv + ["--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="e1-frcnn-exact",
            default_seed=7,
            count=60,
            regions=(2, 6),
            noise=0.0,
            separation=6.0,
            train=dict(
                mode="standard", agg="frcnn", shap="exact", bg_size=32, shap_samples=256,
                epochs_det=8, epochs_clf=60, lr_det=0.5, lr_clf=0.05,
            ),
            explains=3,
        ),
        Workload(
            name="e2-retina-backprop",
            default_seed=0,
            count=50,
            regions=(2, 6),
            noise=0.2,
            separation=1.5,
            train=dict(
                mode="shap-backprop", scheme="linear-instance", h=5.0, agg="retina",
                shap="exact", bg_size=16, shap_samples=256,
                epochs_det=10, epochs_clf=40, lr_det=0.3, lr_clf=0.05,
            ),
            explains=3,
        ),
        Workload(
            name="cli-large-scenes",
            default_seed=0,
            count=1000,
            regions=(8, 24),
            noise=0.1,
            separation=3.0,
            train=dict(
                mode="standard", agg="frcnn", shap="kernel", bg_size=8, shap_samples=56,
                epochs_det=20,
            ),
            explains=4,
        ),
    )
}


@dataclass
class Checks:
    """Correctness checks and operations, counted against those attempted."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def digest(ged_per_instance: dict) -> str:
    blob = json.dumps(ged_per_instance, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class Session:
    """One workload's inputs, files and checks for the length of a run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.kg = monumai_kg()
        self.kg_path = workdir / "kg.json"
        self.data_path = workdir / "data.jsonl"
        self.run_dir = workdir / "run"
        self.explain_dir = workdir / "explain"
        save_kg(self.kg, self.kg_path)
        self.checks = Checks()
        self.tracing = False
        self.train_size = 0
        self.test_ids: list[str] = []
        self.explain_ids: list[str] = []
        self.train_metrics: dict | None = None
        self.ged_report: dict | None = None
        self.ged_digest: str | None = None
        self.mismatches = 0

    @contextmanager
    def _spans(self, *names: str):
        """Record nested spans around the block when this operation is traced."""
        if not self.tracing:
            yield
            return
        self.tracer.recording = True
        opened = [self.tracer.begin(name) for name in names]
        try:
            yield
        finally:
            for index in reversed(opened):
                self.tracer.end(index)
            self.tracer.recording = False

    def setup(self) -> float:
        wl = self.workload
        cfg = datagen.GeneratorConfig(
            seed=self.seed, feature_dim=FEATURE_DIM, regions_per_instance=wl.regions,
            noise_rate=wl.noise, separation=wl.separation,
        )
        with self._spans("bench.setup"):
            start = time.perf_counter()
            instances = datagen.generate_dataset(self.kg, cfg, wl.count)
            train, _, test = datagen.split_dataset(instances)
            datagen.write_dataset(instances, self.data_path)
            elapsed = time.perf_counter() - start
        self.train_size = len(train)
        self.test_ids = sorted(inst.id for inst in test)
        step = len(self.test_ids) / wl.explains
        self.explain_ids = [self.test_ids[int(i * step)] for i in range(wl.explains)]
        return elapsed

    def _cli(self, command: str, argv: list[str]) -> tuple[float, int, str]:
        """Run one CLI command in-process; returns (seconds, exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with self._spans(f"bench.{command}", f"cli.{command}"):
            start = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main([command, *argv])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an operation that fails is counted, the run goes on
                code = -1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        if not self.checks.expect(code == 0, f"{command} exited {code}: {err.getvalue()[-400:]}"):
            elapsed = math.inf
        return elapsed, code, out.getvalue()

    def train(self) -> float:
        elapsed, code, _ = self._cli(
            "train",
            ["--kg", str(self.kg_path), "--data", str(self.data_path),
             "--out-dir", str(self.run_dir), *self.workload.train_argv(self.seed)],
        )
        if code != 0:
            return elapsed
        metrics = json.loads((self.run_dir / "metrics.json").read_text(encoding="utf-8"))["metrics"]
        ged = json.loads((self.run_dir / "ged_report.json").read_text(encoding="utf-8"))
        ged.pop("mean")
        ok = self.checks.expect(
            0.0 <= metrics["accuracy"] <= 1.0
            and 0.0 <= metrics["part_macro_accuracy"] <= 1.0
            and math.isfinite(metrics["mean_shap_ged"]),
            f"train metrics out of range: {metrics}",
        )
        ok &= self.checks.expect(
            sorted(ged) == self.test_ids, "ged_per_instance keys differ from the test split ids"
        )
        if self.ged_digest is None:
            self.ged_digest = digest(ged)
        else:
            ok &= self.checks.expect(
                digest(ged) == self.ged_digest, "repeated training gave another ged_per_instance"
            )
        self.train_metrics, self.ged_report = metrics, ged
        return elapsed if ok else math.inf

    def eval(self) -> float:
        out_path = self.workdir / "eval.json"
        elapsed, code, stdout = self._cli(
            "eval",
            ["--kg", str(self.kg_path), "--data", str(self.data_path),
             "--checkpoints", str(self.run_dir), "--out", str(out_path)],
        )
        if code != 0:
            return elapsed
        ok = self.checks.expect(
            out_path.read_bytes() == stdout.encode("utf-8"),
            "eval stdout differs from the file it wrote",
        )
        ok &= self.checks.expect(
            json.loads(stdout)["metrics"] == self.train_metrics,
            "eval metrics differ from the metrics train wrote",
        )
        return elapsed if ok else math.inf

    def explain(self, instance_id: str) -> float:
        elapsed, code, _ = self._cli(
            "explain",
            ["--kg", str(self.kg_path), "--data", str(self.data_path),
             "--checkpoints", str(self.run_dir), "--instance-id", instance_id,
             "--out-dir", str(self.explain_dir)],
        )
        if code == 0 and self.ged_report is not None:
            sag_path = self.explain_dir / f"sag-{instance_id}.json"
            doc = json.loads(sag_path.read_text(encoding="utf-8"))
            distance = shap_ged(SAG(frozenset(tuple(e) for e in doc["edges"])), self.kg)
            # A known defect (explain seeds the kernel differently from
            # evaluate) makes this non-zero in kernel mode; it is counted, not gated.
            self.mismatches += int(distance != self.ged_report[instance_id])
        return elapsed

    def cycle(self) -> dict[str, list[float]]:
        """One train, one eval and the explain list; seconds per operation."""
        before = self.mismatches
        times = {"train_s": [self.train()], "eval_s": [self.eval()]}
        times["explain_s"] = [self.explain(i) for i in self.explain_ids]
        times["ged_mismatch"] = [self.mismatches - before]
        return times

    def check_efficiency(self, attributions: list[tuple]) -> None:
        """Efficiency of every recorded attribution: sum_j phi_kj = f_k(x) - mean_b f_k(b)."""
        worst = 0.0
        for model, x, bg, phi in attributions:
            span = model(np.asarray(x)[None, :])[0] - model(bg.vectors).mean(axis=0)
            worst = max(worst, float(np.max(np.abs(np.asarray(phi).sum(axis=1) - span))))
        self.checks.expect(
            bool(attributions) and worst <= EFFICIENCY_TOL,
            f"efficiency residual {worst:.3e} over {len(attributions)} attributions",
        )
