"""Cross-process training determinism (issue satellite).

Training must be a pure function of ``(trace, config, seed)``: two
fresh interpreters with *different* ``PYTHONHASHSEED`` values must
produce byte-identical artifact files and equal content digests.  Dict
iteration order is the classic leak this catches -- any fit path that
walks an unordered set of features or keys will diverge here.

The fit joins the matrix: the batched stacked kernel and the frozen
scalar reference loop (``tests.oracles.learn``, patched in for
``fit_model_batch``) must produce byte-identical artifacts in fresh
interpreters too, so the fast path can never fork artifact provenance.
The subprocess runs from the repository root so that ``tests`` is
importable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = """
import hashlib, json, sys
from repro.learn import training as learn_training
from repro.learn.artifact import ArtifactStore
from repro.learn.models import TrainingConfig
from repro.learn.training import fit_artifact
from repro.experiments.common import trace_for

out_dir, model, fit = sys.argv[1], sys.argv[2], sys.argv[3]
if fit == "loop":
    from tests.oracles.learn import fit_model_batch_reference

    learn_training.fit_model_batch = fit_model_batch_reference
trace = trace_for("PFCI", 16)
artifact = fit_artifact(
    trace, 24, model=model, site="PFCI",
    training=TrainingConfig(min_train_days=4, gbm_rounds=12, seed=7),
)
store = ArtifactStore(out_dir)
digest = store.save(artifact)
path = store.path_for("PFCI", model)
print(json.dumps({
    "digest": digest,
    "file_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
}))
"""


REPO_ROOT = Path(__file__).resolve().parents[2]


def _train_in_subprocess(
    tmp_path: Path, model: str, hash_seed: str, fit: str = "batched"
) -> dict:
    out_dir = tmp_path / f"hs{hash_seed}-{model}-{fit}"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(out_dir), model, fit],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("model", ["ridge", "gbm"])
def test_training_is_hashseed_invariant(tmp_path, model):
    a = _train_in_subprocess(tmp_path, model, hash_seed="0")
    b = _train_in_subprocess(tmp_path, model, hash_seed="42")
    assert a["digest"] == b["digest"]
    assert a["file_sha256"] == b["file_sha256"]


@pytest.mark.parametrize("model", ["ridge", "gbm"])
def test_batched_engine_matches_loop_across_hashseeds(tmp_path, model):
    """The batched fast path and the frozen scalar reference produce one
    artifact: every (fit, PYTHONHASHSEED) combination must agree on
    both the content digest and the on-disk bytes."""
    results = [
        _train_in_subprocess(tmp_path, model, hash_seed, fit)
        for fit in ("batched", "loop")
        for hash_seed in ("0", "42")
    ]
    assert len({r["digest"] for r in results}) == 1
    assert len({r["file_sha256"] for r in results}) == 1
