"""Serving parity: the tape-free engine must equal the model path exactly.

The acceptance bar of the serving layer: for every group in a synthetic
dataset, ``RankingEngine.top_k`` equals ``GroupRecommender.recommend``
item-for-item (same checkpoint, same seeds), including the
interacted-item exclusion mask — plus micro-batching correctness.
"""

import threading

import numpy as np
import pytest

from repro.core import KGAG, KGAGConfig, KGAGTrainer, GroupRecommender
from repro.nn import no_grad
from repro.serve import (
    LiveModelIndex,
    MicroBatcher,
    RankingEngine,
    RecommendationService,
    ScoreCache,
    build_index,
)

#: The paper's configuration: d=32, H=2, K=4, query-dependent attention.
PAPER_CONFIG = dict(
    embedding_dim=32, num_layers=2, num_neighbors=4, uniform_neighbor_weights=False
)


def _paper_model(dataset, seed=11):
    return KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        KGAGConfig(seed=seed, **PAPER_CONFIG),
    )


@pytest.fixture(scope="module")
def engine(index):
    return RankingEngine(index)


class TestParity:
    def test_top_k_matches_recommender_every_group(self, engine, model, split):
        recommender = GroupRecommender(model, split.train)
        for group in range(model.groups.num_groups):
            expected = recommender.recommend(group, k=10)
            served = engine.top_k(group, k=10)
            assert [r.item for r in expected] == [r.item for r in served]
            assert [r.score for r in expected] == [r.score for r in served]
            assert [r.probability for r in expected] == [
                r.probability for r in served
            ]

    def test_exclusion_mask_applied(self, engine, index, split):
        for group in range(index.num_groups):
            seen = set(split.train.items_of(group).tolist())
            if not seen:
                continue
            served = {r.item for r in engine.top_k(group, k=index.num_items)}
            assert served.isdisjoint(seen)

    def test_exclude_seen_false_keeps_all_items(self, engine, index):
        served = engine.top_k(0, k=index.num_items, exclude_seen=False)
        assert len(served) == index.num_items

    def test_score_pairs_matches_model(self, engine, model):
        rng = np.random.default_rng(5)
        groups = rng.integers(0, model.groups.num_groups, size=64)
        items = rng.integers(0, model.num_items, size=64)
        model.eval()
        from repro.nn import no_grad

        with no_grad():
            expected = model.group_item_scores(groups, items).numpy()
        np.testing.assert_array_equal(engine.score_pairs(groups, items), expected)

    def test_explain_matches_model(self, engine, model):
        expected = model.explain(1, 2)
        served = engine.explain(1, 2)
        assert served["members"] == expected["members"]
        np.testing.assert_allclose(served["attention"], expected["attention"], atol=1e-12)
        np.testing.assert_allclose(served["sp"], expected["sp"], atol=1e-12)
        np.testing.assert_allclose(served["pi"], expected["pi"], atol=1e-12)
        assert served["score"] == pytest.approx(expected["score"], abs=1e-12)

    def test_recommender_delegates_to_index(self, model, split, index):
        naive = GroupRecommender(model, split.train)
        indexed = GroupRecommender(model, split.train, index=index)
        modelless = GroupRecommender(None, index=index)
        for group in range(index.num_groups):
            expected = [(r.item, r.score) for r in naive.recommend(group, k=6)]
            assert [(r.item, r.score) for r in indexed.recommend(group, k=6)] == expected
            assert [(r.item, r.score) for r in modelless.recommend(group, k=6)] == expected

    def test_recommender_requires_model_or_index(self):
        with pytest.raises(ValueError):
            GroupRecommender(None)


class TestAblationParity:
    """The numpy mirror must track every config switch, not just defaults."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"aggregator": "graphsage"},
            {"uniform_neighbor_weights": True},
            {"use_kg": False},
            {"use_sp": False},
            {"use_pi": False},
            {"pi_pooling": "mean"},
            {"num_layers": 1},
        ],
    )
    def test_top_k_matches(self, dataset, split, overrides):
        base = {"embedding_dim": 8, "num_layers": 2, "num_neighbors": 3, "seed": 11}
        config = KGAGConfig(**{**base, **overrides})
        model = KGAG(
            dataset.kg,
            dataset.num_users,
            dataset.num_items,
            dataset.user_item.pairs,
            dataset.groups,
            config,
        )
        engine = RankingEngine(build_index(model, train_interactions=split.train))
        recommender = GroupRecommender(model, split.train)
        for group in range(dataset.groups.num_groups):
            expected = [(r.item, r.score) for r in recommender.recommend(group, k=8)]
            assert [(r.item, r.score) for r in engine.top_k(group, k=8)] == expected


def _pi_mixing_loop(index, size):
    """Reference block-by-block build of the catalog kernel's PI matrix."""
    dim, peers = index.dim, size - 1
    mixing = np.zeros((size * dim, size * dim))
    for s in range(size):
        col = slice(s * dim, (s + 1) * dim)
        mixing[col, col] = index.attn_w_member.T
        for j, t in enumerate(index.peer_index[s]):
            row = slice(t * dim, (t + 1) * dim)
            if index.pi_pooling == "concat":
                block = index.attn_w_peers[:, j * dim : (j + 1) * dim]
            else:
                block = index.attn_w_peers * (1.0 / peers)
            mixing[row, col] += block.T
    return mixing


class TestCatalogKernel:
    @pytest.mark.parametrize("pooling", ["concat", "mean"])
    def test_pi_mixing_matrix_matches_loop(self, dataset, pooling):
        config = KGAGConfig(
            embedding_dim=8, num_layers=1, num_neighbors=3, pi_pooling=pooling, seed=11
        )
        model = KGAG(
            dataset.kg,
            dataset.num_users,
            dataset.num_items,
            dataset.user_item.pairs,
            dataset.groups,
            config,
        )
        index = build_index(model)
        size = dataset.groups.group_size
        np.testing.assert_array_equal(
            RankingEngine(index)._pi_mixing_matrix(index, size),
            _pi_mixing_loop(index, size),
        )


class TestMemberTable:
    """The per-user member table on each index snapshot (``CatalogTable``)."""

    def test_rows_do_not_depend_on_table_state_or_order(self, dataset, split):
        model = _paper_model(dataset)
        groups = list(range(dataset.groups.num_groups))
        interleaved = groups[::2] + groups[1::2]

        def rows_in(order):
            index = build_index(model, train_interactions=split.train)
            engine = RankingEngine(index)
            return {group: engine.scores_for_group(group) for group in order}, index

        forward, index = rows_in(groups)
        # One entry per distinct member, plus the item-query gather and
        # the PI block matrix and tiled bias of the one group size.
        computed = index.catalog_table.computed
        assert computed == len(np.unique(dataset.groups.members)) + 3
        reversed_rows, _ = rows_in(groups[::-1])
        interleaved_rows, _ = rows_in(interleaved)
        warm = RankingEngine(index)  # same snapshot: every member row cached
        for group in groups:
            cold, _ = rows_in([group])
            for other in (reversed_rows, interleaved_rows, cold):
                np.testing.assert_array_equal(other[group], forward[group])
            np.testing.assert_array_equal(warm.scores_for_group(group), forward[group])
        assert index.catalog_table.computed == computed

    def test_live_view_after_optimizer_step_reads_new_weights(self, dataset, split):
        model = _paper_model(dataset)
        trainer = KGAGTrainer(model, split.train, dataset.user_item, split.validation)
        group = 2
        before = RankingEngine(LiveModelIndex(model)).scores_for_group(group)
        trainer.train_step(next(iter(trainer.loader.epoch())))
        after = RankingEngine(LiveModelIndex(model)).scores_for_group(group)
        model.eval()
        items = np.arange(model.num_items)
        with no_grad():
            tape = model.group_item_scores(np.full_like(items, group), items).numpy()
        np.testing.assert_allclose(after, tape, rtol=0, atol=1e-9)
        assert not np.allclose(after, before, rtol=0, atol=1e-9)

    def test_reload_starts_from_the_new_snapshot(self, dataset, split):
        old = build_index(_paper_model(dataset, seed=11), train_interactions=split.train)
        new = build_index(_paper_model(dataset, seed=12), train_interactions=split.train)
        service = RecommendationService(
            old, cache_capacity=0, deadline_ms=None, batch_wait_ms=0.0
        )
        try:
            groups = range(dataset.groups.num_groups)
            for group in groups:  # warm the old snapshot's member table
                service.engine.scores_for_group(group)
            service.reload_index(new)
            fresh = RankingEngine(build_index(
                _paper_model(dataset, seed=12), train_interactions=split.train
            ))
            for group in groups:
                np.testing.assert_array_equal(
                    service.engine.scores_for_group(group), fresh.scores_for_group(group)
                )
        finally:
            service.close()


class TestIdRange:
    """Out-of-range ids raise ``KeyError``; negative ids must not wrap."""

    @pytest.mark.parametrize("backing", ["index", "model"])
    def test_recommender_rejects_out_of_range_ids(self, model, split, index, backing):
        if backing == "index":
            recommender = GroupRecommender(None, index=index)
        else:
            recommender = GroupRecommender(model, split.train)
        groups, items = index.num_groups, index.num_items
        for group, item in [(-1, 0), (0, -1), (groups, 0), (0, items)]:
            with pytest.raises(KeyError):
                recommender.explain(group, item)
            with pytest.raises(KeyError):
                recommender.score([group], [item])
        for group in (-1, groups):
            with pytest.raises(KeyError):
                recommender.recommend(group)


class TestBatchingAndCache:
    def test_scores_for_groups_matches_single(self, index, model, dataset, split):
        # d=32, H=2, K=4 with query-dependent attention: the paper's config.
        paper_model = KGAG(
            dataset.kg,
            dataset.num_users,
            dataset.num_items,
            dataset.user_item.pairs,
            dataset.groups,
            KGAGConfig(embedding_dim=32, num_layers=2, num_neighbors=4, seed=11),
        )
        engines = [
            RankingEngine(index),
            RankingEngine.from_model(model),
            RankingEngine(build_index(paper_model, train_interactions=split.train)),
        ]
        for engine in engines:
            matrix = engine.scores_for_groups([3, 1, 3])
            np.testing.assert_array_equal(matrix[0], engine.scores_for_group(3))
            np.testing.assert_array_equal(matrix[1], engine.scores_for_group(1))
            np.testing.assert_array_equal(matrix[2], matrix[0])

    def test_engine_uses_cache(self, index):
        cache = ScoreCache(8)
        engine = RankingEngine(index, cache=cache)
        first = engine.scores_for_group(2)
        second = engine.scores_for_group(2)
        np.testing.assert_array_equal(first, second)
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses >= 1

    def test_unknown_group_rejected(self, index):
        engine = RankingEngine(index)
        with pytest.raises(KeyError):
            engine.scores_for_group(index.num_groups + 5)

    def test_micro_batcher_coalesces_concurrent_requests(self, index):
        engine = RankingEngine(index, cache=ScoreCache(32))
        batcher = MicroBatcher(engine, max_wait_ms=50.0, max_batch=8)
        expected = {g: engine.scores_for_group(g) for g in range(4)}
        results: dict[int, np.ndarray] = {}
        errors: list[Exception] = []

        def worker(group):
            try:
                results[group] = batcher.scores_for_group(group)
            except Exception as error:  # surfaced in the main thread
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(g,)) for g in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert batcher.requests_served == 4
        assert batcher.batches_run < 4  # at least one coalesced batch
        for group, vector in results.items():
            np.testing.assert_array_equal(vector, expected[group])

    def test_micro_batcher_propagates_errors(self, index):
        engine = RankingEngine(index)
        batcher = MicroBatcher(engine, max_wait_ms=0.0)
        with pytest.raises(KeyError):
            batcher.scores_for_group(index.num_groups + 1)
