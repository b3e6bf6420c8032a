"""Artifacts, seeded inputs, reference outputs and provenance.

Everything here runs in the load-generator process before any timed
section, so none of it counts toward ``setup_s``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATASET = "mnist-fast"
SCALE = "fast"
CW_ATTACKS = ("cw-l0", "cw-l2", "cw-linf")
#: Request sizes, in rows, drawn uniformly per request.
MIN_ROWS, MAX_ROWS = 1, 4
#: Share of rows replayed from the attack pools on serve_adversarial.
ADV_FRACTION = 0.5
#: Requests generated per run; more than any run can send in its window.
STREAM_REQUESTS = 60_000


def load_context():
    """Dataset, model, DCN (detector + corrector radius) from the cache.

    Builds whatever the cache lacks; in a fresh checkout that is the
    first run's one-off cost.
    """
    from repro.eval import build_context, scale_config

    ctx = build_context(DATASET, scale_config(SCALE))
    ctx.dcn  # detector and calibrated radius
    return ctx


def prepare_artifacts(ctx) -> dict:
    """Build or verify every cached artifact; return their fingerprints."""
    from repro.cache import weights_fingerprint

    pools = {name: ctx.pool(name) for name in CW_ATTACKS}
    return {
        "dataset": digest(ctx.dataset.x_test, ctx.dataset.y_test),
        "model": weights_fingerprint(ctx.model),
        "detector": weights_fingerprint(ctx.dcn.detector.network),
        "radius": float(ctx.dcn.corrector.radius),
        "pools": {name: digest(pool.adversarial, pool.success) for name, pool in pools.items()},
    }


@dataclass(frozen=True)
class RowTable:
    """Every row a serving stream may send, with what is known about it.

    ``source`` is the row's true label (benign rows) or the label it was
    attacked from (adversarial rows).
    """

    x: np.ndarray
    source: np.ndarray
    adversarial: np.ndarray


@dataclass(frozen=True)
class Stream:
    """Requests as slices of row ids into a :class:`RowTable`."""

    offsets: np.ndarray  # request i is row_ids[offsets[i]:offsets[i + 1]]
    row_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def rows(self, i: int) -> np.ndarray:
        return self.row_ids[self.offsets[i] : self.offsets[i + 1]]

    def fingerprint(self) -> str:
        return digest(self.offsets, self.row_ids)


def held_out_test_rows(ctx) -> np.ndarray:
    """Test-set indices the detector was not trained on (Sec. 5.2)."""
    return np.setdiff1d(np.arange(len(ctx.dataset.x_test)), ctx.dcn.detector.train_seed_indices)


def serving_table(ctx, workload: str) -> RowTable:
    """Rows of one serving workload.

    serve_benign / serve_pool: held-out test rows the detector passes, so
    every row exits at the gate.  serve_adversarial: all held-out test
    rows (the detector's false flags included) plus every successful
    entry of the three CW pools.
    """
    data = ctx.dataset
    held_out = held_out_test_rows(ctx)
    x, y = data.x_test[held_out], data.y_test[held_out]
    if workload != "serve_adversarial":
        keep = ~ctx.dcn.detector.flag_images(ctx.model, x)
        return RowTable(x[keep], y[keep], np.zeros(int(keep.sum()), dtype=bool))
    xs, sources = [x], [y]
    for name in CW_ATTACKS:
        adv, src, _ = ctx.pool(name).successful()
        xs.append(adv)
        sources.append(src)
    adversarial = np.arange(sum(len(part) for part in xs)) >= len(x)
    return RowTable(np.concatenate(xs), np.concatenate(sources), adversarial)


def build_stream(table: RowTable, seed: int, requests: int = STREAM_REQUESTS) -> Stream:
    """Seeded request stream: sizes 1-4; benign rows without replacement
    (reshuffled when the pool runs out), adversarial rows with it."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(MIN_ROWS, MAX_ROWS + 1, size=requests)
    total = int(sizes.sum())
    benign = np.flatnonzero(~table.adversarial)
    adversarial = np.flatnonzero(table.adversarial)
    adv_fraction = ADV_FRACTION if len(adversarial) else 0.0
    is_adv = rng.random(total) < adv_fraction
    row_ids = np.empty(total, dtype=np.int64)
    n_benign = int((~is_adv).sum())
    rounds = -(-n_benign // len(benign))
    row_ids[~is_adv] = np.concatenate([rng.permutation(benign) for _ in range(rounds)])[:n_benign]
    row_ids[is_adv] = adversarial[rng.integers(0, len(adversarial), size=int(is_adv.sum()))]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return Stream(offsets, row_ids)


def reference_labels(ctx, table: RowTable) -> np.ndarray:
    """Offline ``DCN.classify`` of every row: what serving must return."""
    return np.asarray(ctx.dcn.classify(table.x))


def digest(*arrays: np.ndarray) -> str:
    """Short content hash of arrays (dtype and shape included)."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def source_fingerprint(root: Path) -> str:
    """Hash of every file under ``src/``: identifies the program measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, seed: int) -> dict:
    """Where and on what the numbers were measured."""
    info = {
        "source_sha256": source_fingerprint(root),
        "git_sha": None,
        "git_dirty": None,
        "git_diff_sha256": None,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }
    # Only ask git inside a checkout of its own: outside one, git would
    # search parent directories for a repository that is not ours.
    if (root / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True, timeout=30, check=True
            ).stdout

        try:
            info["git_sha"] = git("rev-parse", "HEAD").strip()
            diff = git("diff", "HEAD", "--", "src")
            info["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no").strip())
            info["git_diff_sha256"] = hashlib.sha256(diff.encode()).hexdigest()[:16]
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def python_path_for(root: Path) -> None:
    """Make ``repro`` (under ``src/``) importable in this process."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
