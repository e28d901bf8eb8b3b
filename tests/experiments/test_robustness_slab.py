"""Column-stacked kernel slabs inside the robustness matrix.

Every kernel-backed predictor but WCMA (the baselines and the learned
``ridge``/``gbm``) runs as one B-column vector-kernel slab covering
every (site, scenario) cell.  These tests pin the load-bearing
guarantees: the stacked path reproduces the per-cell scalar path
*exactly* (the goldens depend on it), learned slab cache keys fold in
the training config and feature schema so hyper-parameter flips can
never serve stale cells, and the learned kernels' per-stage timings
surface through ``ExecutionStats``.
"""

import dataclasses

import pytest

from repro.core.registry import make_predictor
from repro.experiments import robustness
from repro.experiments.common import trace_for
from repro.learn.models import TrainingConfig
from repro.metrics.evaluate import evaluate_predictor
from repro.parallel.cache import ResultCache
from repro.solar.scenarios import make_scenario

DAYS = 24  # > DEFAULT_WARMUP_DAYS, so the ROI scores real days
SITES = ("PFCI", "HSU")
SCENARIOS = ("dropout", "jitter")  # run() prepends "clean"
SEED = 7
N_SLOTS = 48
#: Stacked predictors interleaved with per-cell WCMA.
PREDICTORS = (
    "ridge", "ewma", "wcma", "gbm", "persistence", "previous-day", "moving-average",
)
FAST = TrainingConfig(
    min_train_days=2,
    refit_days=2,
    window_days=5,
    gbm_rounds=8,
    gbm_thresholds=7,
)


@pytest.fixture(scope="module")
def matrix():
    """Matrix with an interleaved predictor order, so the slab
    reassembly has to slot stacked columns between per-cell rows."""
    assert set(PREDICTORS) - {"wcma"} == set(robustness.STACKED_MATRIX_PREDICTORS)
    return robustness.run(
        n_days=DAYS,
        sites=SITES,
        scenarios=SCENARIOS,
        predictors=PREDICTORS,
        seed=SEED,
        tune_wcma=False,
        training=FAST,
    )


class TestSlabEqualsPerCell:
    def test_row_order_preserved(self, matrix):
        """Rows come back cell-major in the requested predictor order,
        exactly as the all-per-cell path emitted them."""
        expected = [
            (scenario, site, name)
            for site in SITES
            for scenario in ("clean",) + SCENARIOS
            for name in PREDICTORS
        ]
        got = [(r["scenario"], r["site"], r["predictor"]) for r in matrix.rows]
        assert got == expected

    def test_learned_rows_exactly_match_scalar_evaluation(self, matrix):
        """Every stacked cell equals an independent scalar-face
        ``evaluate_predictor`` run bit-for-bit -- ``==``, not approx."""
        stacked = 0
        for row in matrix.rows:
            if row["predictor"] not in robustness.STACKED_MATRIX_PREDICTORS:
                continue
            stacked += 1
            perturbed = make_scenario(row["scenario"], seed=SEED).apply(
                trace_for(row["site"], DAYS)
            )
            kwargs = {"training": FAST} if row["predictor"] in ("ridge", "gbm") else {}
            expected = evaluate_predictor(
                make_predictor(row["predictor"], N_SLOTS, **kwargs),
                perturbed,
                N_SLOTS,
            ).mape
            assert row["mape"] == float(expected), (
                row["scenario"], row["site"], row["predictor"],
            )
        assert stacked == 6 * len(SITES) * (1 + len(SCENARIOS))

    def test_degradation_column_filled(self, matrix):
        for row in matrix.rows:
            if row["scenario"] != "clean":
                assert row["dMAPE vs clean (pp)"] is not None


class TestSlabCacheKeys:
    def _run(self, cache, training, stats):
        return robustness.run(
            n_days=DAYS,
            sites=SITES,
            scenarios=SCENARIOS,
            predictors=("ridge",),
            seed=SEED,
            tune_wcma=False,
            training=training,
            cache=cache,
            stats=stats,
        )

    def test_resume_roundtrip_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        stats = []
        first = self._run(cache, FAST, stats)
        again = self._run(cache, FAST, stats)
        # One slab runs; its 6 cells are then cached one by one.
        assert stats[0].cache_misses == 1 and stats[0].cache_hits == 0
        assert stats[1].cache_hits == 6 and stats[1].cache_misses == 0
        assert again.rows == first.rows

    def test_training_config_flip_misses(self, tmp_path):
        """Satellite: flipping ``ridge_lambda`` must miss the slab
        cache -- the training config is part of the unit's identity."""
        cache = ResultCache(tmp_path / "c", salt="s")
        stats = []
        self._run(cache, FAST, stats)
        flipped = dataclasses.replace(FAST, ridge_lambda=0.5)
        self._run(cache, flipped, stats)
        assert stats[1].cache_misses == 1 and stats[1].cache_hits == 0
        # The original config still resolves to its own cached cells.
        self._run(cache, FAST, stats)
        assert stats[2].cache_hits == 6 and stats[2].cache_misses == 0

    def test_wider_matrix_reruns_only_new_cells(self, tmp_path):
        """Cells are cached one by one: adding a scenario runs one slab
        over just its cells, and that narrower slab's columns equal the
        full-grid slab's, bit for bit."""
        cache = ResultCache(tmp_path / "c", salt="s")
        stats = []
        kwargs = dict(
            n_days=DAYS, sites=SITES, predictors=("ridge", "persistence"),
            seed=SEED, tune_wcma=False, training=FAST,
        )
        robustness.run(scenarios=("dropout",), cache=cache, **kwargs)
        wider = robustness.run(
            scenarios=SCENARIOS, cache=cache, stats=stats, **kwargs
        )
        # 2 predictors x 2 sites x (clean + dropout) cached; one slab per
        # predictor over the 2 jitter cells.
        assert stats[0].cache_hits == 8 and stats[0].cache_misses == 2
        assert wider.rows == robustness.run(scenarios=SCENARIOS, **kwargs).rows

    def test_finished_slab_survives_interruption(self, tmp_path, monkeypatch):
        """A slab's payload is stored the moment it completes, so a run
        interrupted before splitting it into one-cell entries resumes
        without re-running the slab."""
        cache = ResultCache(tmp_path / "c", salt="s")
        real_put = ResultCache.put

        def put(self, key, value):
            if isinstance(value, dict) and len(value["mape"]) == 1:
                raise KeyboardInterrupt  # the split of the finished slab
            real_put(self, key, value)

        monkeypatch.setattr(ResultCache, "put", put)
        with pytest.raises(KeyboardInterrupt):
            self._run(cache, FAST, [])
        monkeypatch.setattr(ResultCache, "put", real_put)
        stats = []
        resumed = self._run(cache, FAST, stats)
        assert stats[0].cache_hits == 1 and stats[0].cache_misses == 0
        assert resumed.rows == self._run(None, FAST, []).rows

    def test_feature_schema_version_in_key(self, tmp_path, monkeypatch):
        """A feature redefinition (schema bump) invalidates slabs."""
        import repro.learn.features as features

        cache = ResultCache(tmp_path / "c", salt="s")
        stats = []
        self._run(cache, FAST, stats)
        monkeypatch.setattr(
            features,
            "FEATURE_SCHEMA_VERSION",
            features.FEATURE_SCHEMA_VERSION + 1,
        )
        self._run(cache, FAST, stats)
        assert stats[1].cache_misses == 1 and stats[1].cache_hits == 0


class TestSlabStats:
    def test_stage_seconds_surfaced(self, tmp_path):
        stats = []
        robustness.run(
            n_days=DAYS,
            sites=SITES,
            scenarios=SCENARIOS,
            predictors=("gbm",),
            seed=SEED,
            tune_wcma=False,
            training=FAST,
            stats=stats,
        )
        stages = stats[0].stage_seconds
        assert set(stages) == {"features", "refit", "predict"}
        assert stages["refit"] > 0.0 and stages["features"] > 0.0
        payload = stats[0].as_dict()
        assert set(payload["stage_seconds"]) == set(stages)

    def test_no_learned_predictors_no_stage_seconds(self, tmp_path):
        stats = []
        robustness.run(
            n_days=DAYS,
            sites=SITES,
            scenarios=SCENARIOS,
            predictors=("ewma",),
            seed=SEED,
            tune_wcma=False,
            stats=stats,
        )
        assert stats[0].stage_seconds is None
        assert "stage_seconds" not in stats[0].as_dict()

    def test_training_dict_form_accepted(self):
        """``run(training=<dict>)`` (the CLI/service form) matches the
        dataclass form byte-for-byte."""
        kwargs = dict(
            n_days=DAYS,
            sites=SITES,
            scenarios=("dropout",),
            predictors=("ridge",),
            seed=SEED,
            tune_wcma=False,
        )
        from_cfg = robustness.run(training=FAST, **kwargs)
        from_dict = robustness.run(training=FAST.to_dict(), **kwargs)
        assert from_dict.rows == from_cfg.rows
