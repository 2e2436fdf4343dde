// CacheAdvisor: automatic lifetime-based cache management (auto-free of
// dead datasets, cross-job protection, kFull promotion, and the
// uncache-during-recompute veto).
#include <gtest/gtest.h>

#include <memory>

#include "sched/cache_advisor.h"
#include "sched/dag_scheduler.h"
#include "trace/wiki.h"

namespace stark {
namespace {

class CacheAdvisorTest : public ::testing::Test {
 protected:
  CacheAdvisorTest() { reset({}); }

  void reset(DagOptions opts, Bytes ram = 16.0 * kGiB,
             std::vector<double> quotas = {}) {
    ClusterConfig cc;
    cc.num_servers = 2;
    cc.server.ram = ram;
    cc.cache.tenant_quota_fractions = std::move(quotas);
    sim_ = std::make_unique<sim::Simulation>();
    cluster_ = std::make_unique<Cluster>(cc);
    locality_ = std::make_unique<LocalityManager>(*cluster_);
    groups_ = std::make_unique<GroupManager>(*locality_);
    dag_ = std::make_unique<DagScheduler>(*sim_, *cluster_, CostModel{},
                                          *locality_, *groups_, opts);
  }

  static DagOptions advisor_opts(AutoCacheMode mode) {
    DagOptions opts;
    opts.auto_cache.mode = mode;
    return opts;
  }

  // A 4-partition shuffled dataset over a synthetic wiki histogram.
  DatasetPtr make_dataset(Bytes total = 64 * kMiB) {
    trace::WikiTraceGen::Config c;
    c.num_urls = 128;
    auto hist = std::make_shared<const KeyHistogram>(
        trace::WikiTraceGen(c).histogram(total, 0.9));
    return Dataset::source("s", hist, 2)
        ->partition_by(std::make_shared<HashPartitioner>(4));
  }

  // Materializes a cached dataset by running its identity job.
  DatasetPtr make_cached(Bytes total = 64 * kMiB) {
    auto ds = make_dataset(total);
    ds->cache(Dataset::StorageLevel::kMemorySerialized);
    dag_->run_job(ds);
    return ds;
  }

  // Like make_cached, but a narrow view of the shuffled dataset. The
  // scheduler keeps every shuffle's producer edge, and with it the
  // shuffled dataset, so only a narrow child becomes unreachable when the
  // test drops its handle.
  DatasetPtr make_cached_view() {
    auto ds = make_dataset()->filter({.selectivity = 0.9}, "view");
    ds->cache(Dataset::StorageLevel::kMemorySerialized);
    dag_->run_job(ds);
    return ds;
  }

  bool cached_anywhere(const DatasetPtr& ds) {
    return cached_anywhere(ds->id(), ds->num_partitions());
  }
  // By id, for datasets whose handle the test has already dropped.
  bool cached_anywhere(DatasetId id, int num_partitions = 4) {
    for (int p = 0; p < num_partitions; ++p) {
      if (cluster_->cached_anywhere({id, p})) return true;
    }
    return false;
  }

  // Advances simulated time by `dt` (the advisor sweeps only on job
  // submit/finish, so tests drive the clock explicitly).
  void advance(double dt) {
    sim_->after(dt, [] {});
    sim_->run();
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<LocalityManager> locality_;
  std::unique_ptr<GroupManager> groups_;
  std::unique_ptr<DagScheduler> dag_;
};

TEST_F(CacheAdvisorTest, ManualModeHasNoAdvisor) {
  auto ds = make_cached();
  dag_->run_job(ds->filter({.selectivity = 0.5}));
  advance(3600.0);
  dag_->run_job(make_dataset());  // sweeps would fire here if an advisor ran
  EXPECT_EQ(dag_->cache_advisor(), nullptr);
  EXPECT_TRUE(cached_anywhere(ds));
  EXPECT_TRUE(ds->cache_requested());
  const AutoCacheStats& s = dag_->auto_cache_stats();
  EXPECT_EQ(s.auto_frees, 0);
  EXPECT_EQ(s.auto_caches, 0);
}

TEST_F(CacheAdvisorTest, OptionsValidateRejectsBadKnobs) {
  AutoCacheOptions bad;
  bad.mode = AutoCacheMode::kFull;
  bad.ram_budget_fraction = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.ram_budget_fraction = 0.5;
  bad.decay_half_life = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.decay_half_life = 600.0;
  bad.free_grace_seconds = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.free_grace_seconds = 30.0;
  EXPECT_NO_THROW(bad.validate());
}

TEST_F(CacheAdvisorTest, AutoFreeReclaimsDeadDatasetAfterGrace) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached_view();
  const DatasetId id = ds->id();
  dag_->run_job(ds->filter({.selectivity = 0.5}));
  ds.reset();  // the application drops its last handle: unreachable
  // Back-to-back follow-up inside the grace period: nothing is freed.
  dag_->run_job(make_dataset());
  EXPECT_TRUE(cached_anywhere(id));
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 0);
  // Dead past the grace period: the next sweep reclaims every tier.
  advance(60.0);
  dag_->run_job(make_dataset());
  EXPECT_FALSE(cached_anywhere(id));
  const AutoCacheStats& s = dag_->auto_cache_stats();
  EXPECT_EQ(s.auto_frees, 1);
  EXPECT_GT(s.bytes_freed, 0.0);
}

TEST_F(CacheAdvisorTest, RepeatedlyReferencedDatasetIsProtected) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached();
  // Several distinct jobs keep coming back to ds: its decayed reuse score
  // climbs past protect_threshold, so the sweep must not free it.
  for (int i = 0; i < 3; ++i) {
    dag_->run_job(ds->filter({.selectivity = 0.5}));
  }
  advance(60.0);
  dag_->run_job(make_dataset());
  EXPECT_TRUE(cached_anywhere(ds));
  EXPECT_TRUE(ds->cache_requested());
  const AutoCacheStats& s = dag_->auto_cache_stats();
  EXPECT_EQ(s.auto_frees, 0);
  EXPECT_GE(s.frees_protected, 1);
  EXPECT_GE(dag_->cache_advisor()->reuse_score(ds->id(), sim_->now()), 1.5);
}

TEST_F(CacheAdvisorTest, PinnedBlockDefersFreeUntilUnpinned) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached_view();
  const DatasetId id = ds->id();
  dag_->run_job(ds->filter({.selectivity = 0.5}));
  ds.reset();  // unreachable, so only the pin stands between it and a free
  // Pin one replica (as a running task would): the sweep must defer.
  const BlockId bid{id, 0};
  const auto locs = cluster_->cache_locations(bid);
  ASSERT_FALSE(locs.empty());
  ASSERT_TRUE(cluster_->server(locs.front()).storage().pin(bid));
  advance(60.0);
  dag_->run_job(make_dataset());
  EXPECT_TRUE(cached_anywhere(id));
  EXPECT_GE(dag_->auto_cache_stats().frees_deferred, 1);
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 0);
  // Unpin: the next sweep reclaims it.
  ASSERT_TRUE(cluster_->server(locs.front()).storage().unpin(bid));
  dag_->run_job(make_dataset());
  EXPECT_FALSE(cached_anywhere(id));
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 1);
}

TEST_F(CacheAdvisorTest, HeldDeadDatasetKeepsItsCacheRequest) {
  // Dead in the submitted DAG is only a guess: while the application holds
  // its handle it can submit another job over the dataset at any time.
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached_view();
  dag_->run_job(ds->filter({.selectivity = 0.5}));
  for (int i = 0; i < 3; ++i) {
    advance(600.0);
    dag_->run_job(make_dataset());  // a sweep well past the grace period
  }
  EXPECT_TRUE(cached_anywhere(ds));
  EXPECT_TRUE(ds->cache_requested());
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 0);
  // The later job reads it from cache instead of recomputing it.
  const JobResult r = dag_->run_job(ds->filter({.selectivity = 0.5}));
  EXPECT_GT(r.bytes_from_cache, 0.0);
}

TEST_F(CacheAdvisorTest, HandleDroppedAfterReleaseIsReclaimedLater) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached_view();
  const DatasetId id = ds->id();
  dag_->run_job(ds->filter({.selectivity = 0.5}));
  advance(60.0);
  dag_->run_job(make_dataset());  // past the grace period, but still held
  ASSERT_TRUE(cached_anywhere(id));
  ASSERT_EQ(dag_->auto_cache_stats().auto_frees, 0);
  // The handle expires long after the last stage released the dataset: it
  // stayed queued, so the next sweep reclaims it.
  ds.reset();
  dag_->run_job(make_dataset());
  EXPECT_FALSE(cached_anywhere(id));
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 1);
  EXPECT_GT(dag_->auto_cache_stats().bytes_freed, 0.0);
}

TEST_F(CacheAdvisorTest, FullModeFreesItsOwnPromotionAfterGrace) {
  // The advisor owns the cache request of a dataset it promoted, so it may
  // revoke it even while the application still holds the handle.
  reset(advisor_opts(AutoCacheMode::kFull));
  auto inter = make_dataset();
  dag_->run_job(inter->filter({.selectivity = 0.5}));
  dag_->run_job(inter->filter({.selectivity = 0.5}));  // promotes it
  ASSERT_TRUE(inter->cache_requested());
  ASSERT_TRUE(cached_anywhere(inter));
  ASSERT_EQ(dag_->auto_cache_stats().auto_caches, 1);
  // Inside the grace period nothing is freed.
  dag_->run_job(make_dataset());
  EXPECT_TRUE(cached_anywhere(inter));
  advance(60.0);
  dag_->run_job(make_dataset());
  EXPECT_FALSE(cached_anywhere(inter));
  EXPECT_FALSE(inter->cache_requested());
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 1);
  EXPECT_EQ(dag_->cache_advisor()->promoted_bytes_live(), 0.0);
}

TEST_F(CacheAdvisorTest, StillReferencedDatasetIsNeverFreed) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto ds = make_cached();
  // Submit a consumer but do not run the simulation: its stages hold live
  // references, so even a sweep far in the future must not free ds.
  const JobId id = dag_->submit(ds->filter({.selectivity = 0.5}),
                                ActionType::kCount);
  EXPECT_GT(dag_->cache_advisor()->live_stages(ds->id()), 0);
  dag_->cache_advisor()->sweep(sim_->now() + 1e9);
  EXPECT_TRUE(cached_anywhere(ds));
  EXPECT_EQ(dag_->auto_cache_stats().auto_frees, 0);
  sim_->run();
  EXPECT_TRUE(dag_->job_done(id));
  EXPECT_EQ(dag_->cache_advisor()->live_stages(ds->id()), 0);
}

TEST_F(CacheAdvisorTest, FullModePromotesReusedIntermediate) {
  reset(advisor_opts(AutoCacheMode::kFull));
  auto inter = make_dataset();  // uncached non-source intermediate
  dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_FALSE(inter->cache_requested());
  // A second job over the same intermediate is cross-job reuse evidence:
  // the submit-time ranking promotes it under the RAM budget.
  dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_TRUE(inter->cache_requested());
  const AutoCacheStats& s = dag_->auto_cache_stats();
  EXPECT_EQ(s.auto_caches, 1);
  EXPECT_GT(s.bytes_promoted, 0.0);
  EXPECT_LE(dag_->cache_advisor()->promoted_bytes_live(),
            dag_->cache_advisor()->promotion_budget());
  // The promoting job materialized the blocks; a third job hits the cache.
  const JobResult r = dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_GT(r.bytes_from_cache, 0.0);
}

TEST_F(CacheAdvisorTest, AutoFreeOnlyModeNeverPromotes) {
  reset(advisor_opts(AutoCacheMode::kAutoFreeOnly));
  auto inter = make_dataset();
  for (int i = 0; i < 3; ++i) {
    dag_->run_job(inter->filter({.selectivity = 0.5}));
  }
  EXPECT_FALSE(inter->cache_requested());
  EXPECT_EQ(dag_->auto_cache_stats().auto_caches, 0);
}

TEST_F(CacheAdvisorTest, PromotionRespectsTenantCacheQuota) {
  // Tenant 1 owns a 25% cache quota; kFull promotions enter the cache
  // through the ordinary insert path, so the quota caps them too.
  reset(advisor_opts(AutoCacheMode::kFull), 256 * kMiB, {1.0, 0.25});
  auto inter = make_dataset(128 * kMiB);
  for (int i = 0; i < 3; ++i) {
    dag_->submit(inter->filter({.selectivity = 0.5}), ActionType::kCount,
                 SubmitOptions{.tenant = "quota-tenant"});
    sim_->run();
  }
  for (ServerId s = 0; s < cluster_->size(); ++s) {
    const BlockManager& bm = cluster_->server(s).storage();
    EXPECT_LE(bm.tenant_used(1), 0.25 * bm.capacity() + 1.0)
        << "server " << s;
  }
}

TEST_F(CacheAdvisorTest, RetiredDatasetVetoesInFlightReinsertion) {
  // The uncache-during-recompute race: a job whose tasks will materialize
  // a cached dataset is in flight when the dataset is freed. The recomputed
  // partitions must not be re-inserted into the dead dataset's cache.
  auto inter = make_dataset();
  inter->cache(Dataset::StorageLevel::kMemorySerialized);
  const JobId id = dag_->submit(inter->filter({.selectivity = 0.5}),
                                ActionType::kCount);
  const Bytes dropped = dag_->retire_dataset(inter);
  EXPECT_TRUE(dag_->dataset_retired(inter->id()));
  EXPECT_FALSE(inter->cache_requested());
  sim_->run();
  EXPECT_TRUE(dag_->job_done(id));
  EXPECT_FALSE(cached_anywhere(inter));  // the veto held
  (void)dropped;
}

TEST_F(CacheAdvisorTest, ReReferenceLiftsRetirementVeto) {
  auto inter = make_dataset();
  inter->cache(Dataset::StorageLevel::kMemorySerialized);
  dag_->run_job(inter);
  ASSERT_TRUE(cached_anywhere(inter));
  dag_->retire_dataset(inter);
  EXPECT_FALSE(cached_anywhere(inter));
  // The user re-caches and resubmits: the veto lifts at stage build and
  // the dataset materializes again.
  inter->cache(Dataset::StorageLevel::kMemorySerialized);
  dag_->run_job(inter->filter({.selectivity = 0.5}));
  EXPECT_FALSE(dag_->dataset_retired(inter->id()));
  EXPECT_TRUE(cached_anywhere(inter));
}

TEST_F(CacheAdvisorTest, RetireDatasetReportsDroppedBytes) {
  auto ds = make_cached();
  const Bytes cached = cluster_->total_cached_bytes();
  ASSERT_GT(cached, 0.0);
  const Bytes dropped = dag_->retire_dataset(ds);
  EXPECT_NEAR(dropped, cached, 1.0);
  EXPECT_NEAR(cluster_->total_cached_bytes(), 0.0, 1e-6);
}

}  // namespace
}  // namespace stark
