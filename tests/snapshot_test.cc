// SnapshotCell (RCU-style epoch reclamation), LockOrderGuard, and the
// ControlPlane's snapshot read path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/lock_order.h"
#include "baselines/policy_factory.h"
#include "common/rng.h"
#include "core/pard_policy.h"
#include "pipeline/apps.h"
#include "runtime/snapshot.h"
#include "runtime/state_board.h"
#include "serve/control_plane.h"

namespace pard {
namespace {

struct Pair {
  std::uint64_t a = 0;
  std::uint64_t b = 1;  // Invariant: b == 2 * a + 1 in every published version.
};

std::unique_ptr<const Pair> MakePair(std::uint64_t a) {
  auto p = std::make_unique<Pair>();
  p->a = a;
  p->b = 2 * a + 1;
  return p;
}

TEST(SnapshotCell, EpochStartsAtOneAndIncrementsPerPublish) {
  SnapshotCell<Pair> cell(MakePair(0));
  EXPECT_EQ(cell.Epoch(), 1u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    cell.Publish(MakePair(i));
    EXPECT_EQ(cell.Epoch(), 1u + i);
  }
}

TEST(SnapshotCell, ReadSeesLatestPublish) {
  SnapshotCell<Pair> cell(MakePair(7));
  EXPECT_EQ(cell.Read()->a, 7u);
  cell.Publish(MakePair(8));
  auto ref = cell.Read();
  EXPECT_EQ(ref->a, 8u);
  EXPECT_EQ((*ref).b, 17u);
  EXPECT_EQ(ref.epoch(), cell.Epoch());
}

TEST(SnapshotCell, ChurnWithoutReadersReclaimsEverything) {
  SnapshotCell<Pair> cell(MakePair(0));
  for (std::uint64_t i = 1; i <= 100; ++i) {
    cell.Publish(MakePair(i));
  }
  // With no claimed slot, every replaced version's grace period is already
  // over at the next Reclaim() — nothing may accumulate.
  EXPECT_EQ(cell.RetiredCount(), 0u);
  EXPECT_EQ(cell.ReclaimedCount(), 100u);
}

TEST(SnapshotCell, ReaderPinsVersionAcrossPublishes) {
  SnapshotCell<Pair> cell(MakePair(1));
  std::optional<SnapshotCell<Pair>::ReadRef> pinned(cell.Read());
  for (std::uint64_t i = 2; i <= 10; ++i) {
    cell.Publish(MakePair(i));
  }
  // The pinned version (epoch 1) blocks reclamation of every replacement
  // retired at or after its claim epoch — i.e. all of them.
  EXPECT_EQ((*pinned)->a, 1u);
  EXPECT_EQ((*pinned)->b, 3u);
  EXPECT_EQ(cell.RetiredCount(), 9u);
  EXPECT_EQ(cell.ReclaimedCount(), 0u);
  // A fresh read still sees the newest version while the old one is pinned.
  EXPECT_EQ(cell.Read()->a, 10u);
  pinned.reset();  // Release the slot...
  cell.Publish(MakePair(11));  // ...and the next publish sweeps the backlog.
  EXPECT_EQ(cell.ReclaimedCount(), 10u);
  EXPECT_EQ(cell.RetiredCount(), 0u);
}

TEST(SnapshotCell, ManySimultaneousRefsOnOneThread) {
  SnapshotCell<Pair> cell(MakePair(5));
  std::vector<SnapshotCell<Pair>::ReadRef> refs;
  for (int i = 0; i < 16; ++i) {
    refs.push_back(cell.Read());  // Each claims its own slot.
  }
  for (const auto& ref : refs) {
    EXPECT_EQ(ref->a, 5u);
  }
}

// The use-after-free hunt: readers spin dereferencing while the writer
// churns versions. Any premature reclaim is a torn invariant here and a
// hard error under the asan/tsan presets.
TEST(SnapshotCell, ConcurrentReadersUnderWriterChurn) {
  SnapshotCell<Pair> cell(MakePair(0));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&cell, &stop, &reads] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto ref = cell.Read();
        // Version consistency: both fields come from the same publish.
        ASSERT_EQ(ref->b, 2 * ref->a + 1);
        // Epoch monotonicity per reader.
        ASSERT_GE(ref.epoch(), last_epoch);
        last_epoch = ref.epoch();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    cell.Publish(MakePair(i));
    if (i % 64 == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(cell.Epoch(), 1001u);
  // All readers released: one more publish must drain the retired backlog.
  cell.Publish(MakePair(1001));
  EXPECT_EQ(cell.RetiredCount(), 0u);
  EXPECT_EQ(cell.ReclaimedCount(), 1001u);
}

#ifndef NDEBUG

TEST(LockOrder, InOrderAcquisitionPasses) {
  LockOrderGuard module(LockRank::kModule);
  LockOrderGuard shard(LockRank::kQueueShard);
  LockOrderGuard admission(LockRank::kAdmissionShard);
  LockOrderGuard fate(LockRank::kFate);
}

TEST(LockOrder, OutOfOrderAcquisitionThrows) {
  LockOrderGuard admission(LockRank::kAdmissionShard);
  EXPECT_THROW(LockOrderGuard shard(LockRank::kQueueShard), CheckError);
  // The failed guard must not corrupt the stack: in-order still works.
  LockOrderGuard fate(LockRank::kFate);
}

TEST(LockOrder, EqualRankAcquisitionThrows) {
  // Two shard locks at once would deadlock against a sibling doing the same
  // in the opposite order; the hierarchy forbids holding two equal ranks.
  LockOrderGuard shard(LockRank::kQueueShard);
  EXPECT_THROW(LockOrderGuard sibling(LockRank::kQueueShard), CheckError);
}

TEST(LockOrder, ReleaseUnwindsTheStack) {
  {
    LockOrderGuard fate(LockRank::kFate);
  }
  LockOrderGuard module(LockRank::kModule);  // Fine: the stack is empty again.
}

#endif  // NDEBUG

// --- ControlPlane snapshot path --------------------------------------------

std::vector<ModuleState> WarmStates(int n, Rng* rng) {
  std::vector<ModuleState> states;
  for (int i = 0; i < n; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_size = 8;
    s.batch_duration = 10 * kUsPerMs;
    s.avg_queue_delay = 2000.0;
    s.load_factor = 0.8;
    s.burstiness = 0.2;
    for (int j = 0; j < 512; ++j) {
      s.wait_samples.push_back(rng->Uniform(0.0, 10000.0));
    }
    std::sort(s.wait_samples.begin(), s.wait_samples.end());
    states.push_back(std::move(s));
  }
  return states;
}

TEST(ControlPlaneSnapshot, EpochAdvancesPerSync) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board(lv.NumModules());
  PardPolicy policy;
  ControlPlane control(&lv, &policy, &board);
  const std::uint64_t e0 = control.SnapshotEpoch();
  Rng rng(21);
  control.Sync(WarmStates(lv.NumModules(), &rng), kUsPerSec);
  EXPECT_EQ(control.SnapshotEpoch(), e0 + 1);
  control.Sync(WarmStates(lv.NumModules(), &rng), 2 * kUsPerSec);
  EXPECT_EQ(control.SnapshotEpoch(), e0 + 2);
}

// A policy that returns no view has no decision surface: the control plane
// refuses it at construction.
TEST(ControlPlaneSnapshot, NullViewFailsAtConstruction) {
  class NoViewPolicy : public DropPolicy {
   public:
    std::shared_ptr<const PolicyView> MakeView() override { return nullptr; }
    std::string Name() const override { return "no-view"; }
  };
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board(lv.NumModules());
  NoViewPolicy policy;
  EXPECT_THROW(ControlPlane(&lv, &policy, &board), CheckError);
}

// Both substrates decide through the view that the same sync step builds:
// the simulator calls BuildPolicyView at construction and SyncPolicyView at
// every tick; ControlPlane runs the same two calls (its refresh fanned
// across a pool) and serves the view through its snapshot cell. Identical
// published states must therefore give identical decisions, bit for bit,
// including the sweet-spot Monte-Carlo term.
void ExpectSimAndServeDecideAlike(const std::string& name, const PipelineSpec& spec,
                                  const Request& request_template) {
  PolicyParams params;
  params.oc_alpha = 1.0;  // pard-oc sheds every overloaded admission.
  params.oc_threshold = 1 * kUsPerMs;
  const std::unique_ptr<DropPolicy> sim_policy = MakePolicy(name, params);
  const std::unique_ptr<DropPolicy> serve_policy = MakePolicy(name, params);
  StateBoard sim_board(spec.NumModules());
  StateBoard serve_board(spec.NumModules());
  sim_policy->Bind(&spec, &sim_board);
  BuildPolicyView(*sim_policy, nullptr);
  ControlPlane plane(&spec, serve_policy.get(), &serve_board);

  Rng rng_a(33);
  Rng rng_b(33);  // Identical streams -> identical published states.
  for (ModuleState& state : WarmStates(spec.NumModules(), &rng_a)) {
    sim_board.Publish(std::move(state));
  }
  const std::shared_ptr<const PolicyView> view =
      SyncPolicyView(*sim_policy, kUsPerSec, nullptr).view;
  plane.Sync(WarmStates(spec.NumModules(), &rng_b), kUsPerSec);

  Rng admission_rng(5);
  Request req = request_template;
  req.id = 1;
  req.slo = spec.slo();
  req.hops.resize(static_cast<std::size_t>(spec.NumModules()));
  int drops = 0;
  for (int m = 0; m < spec.NumModules(); ++m) {
    for (Duration age = 0; age <= req.slo + 20 * kUsPerMs; age += 5 * kUsPerMs) {
      req.sent = kUsPerSec;
      req.deadline = req.sent + req.slo;
      const SimTime now = req.sent + age;
      AdmissionContext ctx;
      ctx.request = &req;
      ctx.module_id = m;
      ctx.now = now;
      ctx.batch_start = now;
      ctx.batch_duration = 10 * kUsPerMs;
      ctx.batch_size = 8;
      const bool sim_drop = view->ShouldDrop(ctx);
      EXPECT_EQ(sim_drop, plane.ShouldDrop(ctx)) << name << " module " << m << " age " << age;
      EXPECT_EQ(view->ChoosePopSide(m, now), plane.ChoosePopSide(m, now)) << name;
      Rng* rng = view->NeedsAdmissionRng() ? &admission_rng : nullptr;
      const bool sim_admit = view->AdmitAtModule(req, m, now, rng);
      EXPECT_EQ(sim_admit, plane.AdmitAtModule(req, m, now)) << name << " module " << m;
      drops += (sim_drop || !sim_admit) ? 1 : 0;
    }
  }
  // The grid must exercise both outcomes, or the parity check is vacuous.
  EXPECT_GT(drops, 0) << name;
}

TEST(ControlPlaneSnapshot, SimulatorAndControlPlaneDecideAlike) {
  const PipelineSpec lv = MakeLiveVideo();
  for (const char* name : {"pard", "clipper++", "pard-oc"}) {
    ExpectSimAndServeDecideAlike(name, lv, Request());
  }
  // pard-path on the dynamic DAG, for a request that took the face branch.
  Request via_face;
  via_face.branch_choice.assign(5, -1);
  via_face.branch_choice[0] = 2;
  ExpectSimAndServeDecideAlike("pard-path", MakeDagLiveVideo(), via_face);
}

}  // namespace
}  // namespace pard
