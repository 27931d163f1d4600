// Concurrency smoke test compiled with -fsanitize=thread regardless of the
// global build flags (see tests/CMakeLists.txt): it links the instrumented
// dlrover_tsan library and drives the threading-sensitive classes —
// ThreadPool, ShardQueue, EmbStore — so tier-1 `ctest` always runs the hot
// synchronization paths under ThreadSanitizer. No gtest here: TSan makes
// the process exit nonzero when it reports a race, logic failures return 1.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "dlrm/emb_store.h"
#include "elastic/shard_queue.h"
#include "runtime/thread_pool.h"

namespace {

#define CHECK_TRUE(cond)                                              \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAILED: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                         \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

void ThreadPoolSmoke() {
  dlrover::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter]() { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  CHECK_TRUE(counter.load() == 200);

  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(1, 1001, 13, [&sum](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += i;
    sum.fetch_add(local);
  });
  CHECK_TRUE(sum.load() == 500500);
}

void ShardQueueSmoke() {
  constexpr uint64_t kTotal = 4000;
  dlrover::ShardQueueOptions options;
  options.total_batches = kTotal;
  options.default_shard_batches = 32;
  options.min_shard_batches = 8;
  dlrover::ShardQueue queue(options);

  std::vector<std::atomic<uint32_t>> done(kTotal);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&queue, &done, t]() {
      uint64_t n = static_cast<uint64_t>(t) + 1;
      for (;;) {
        auto shard = queue.WaitNextShard();
        if (!shard.ok()) return;
        n = n * 6364136223846793005ull + 1442695040888963407ull;
        const bool fail = (n >> 33) % 5 == 0;  // ~20% failures
        const uint64_t processed =
            fail ? (n >> 17) % (shard->batches() + 1) : shard->batches();
        for (uint64_t b = 0; b < processed; ++b) {
          done[shard->start_batch + b].fetch_add(1);
        }
        const dlrover::Status s =
            fail && processed < shard->batches()
                ? queue.ReportFailed(*shard, processed)
                : queue.ReportCompleted(*shard);
        CHECK_TRUE(s.ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CHECK_TRUE(queue.AllDone());
  CHECK_TRUE(queue.CheckInvariants().ok());
  for (uint64_t b = 0; b < kTotal; ++b) CHECK_TRUE(done[b].load() == 1);
}

void EmbStoreSmoke() {
  dlrover::EmbStoreOptions options;
  options.num_features = 26;
  options.emb_dim = 8;
  options.hash_buckets = 1024;
  options.seed = 7;
  options.stripes = 8;
  dlrover::EmbStore store(options);

  const std::vector<double> grad(8, 1.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&store, &grad, t]() {
      for (int i = 0; i < 500; ++i) {
        const int f = (t + i) % 26;
        const uint64_t bucket = static_cast<uint64_t>(i % 32);
        store.GetRow(f, bucket);
        store.ApplyRowGradient(f, bucket, grad, 0.01);
        store.GetWide(f, bucket);
        store.ApplyWideGradient(f, bucket, 1.0, 0.01);
        store.MaterializedRows();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CHECK_TRUE(store.MaterializedRows() >= 32);
}

// Batched gather/scatter under contention: many threads pulling and pushing
// overlapping key sets through GatherRows/ScatterApply while others hammer
// the per-key API on the same stripes. This is the sharded gradient
// application of the threaded trainer, distilled.
void EmbStoreBatchedSmoke() {
  dlrover::EmbStoreOptions options;
  options.num_features = 26;
  options.emb_dim = 8;
  options.hash_buckets = 1024;
  options.seed = 7;
  options.stripes = 8;
  dlrover::EmbStore store(options);
  const size_t dim = 8;

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&store, t]() {
      dlrover::EmbStore::BatchScratch scratch;
      std::vector<uint64_t> keys;
      std::vector<double> rows;
      std::vector<double> wide;
      std::vector<double> grads;
      std::vector<double> wgrads;
      for (int i = 0; i < 200; ++i) {
        keys.clear();
        for (int f = 0; f < 26; ++f) {
          keys.push_back(store.PackKey(f, static_cast<uint64_t>(
                                              (t * 7 + i + f) % 48)));
        }
        rows.assign(keys.size() * dim, 0.0);
        wide.assign(keys.size(), 0.0);
        store.GatherRows(keys.data(), keys.size(), rows.data(), wide.data(),
                         &scratch);
        grads.assign(keys.size() * dim, 0.5);
        wgrads.assign(keys.size(), 0.25);
        store.ScatterApply(keys.data(), keys.size(), grads.data(),
                           wgrads.data(), 0.01, &scratch);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&store, t]() {
      const std::vector<double> grad(dim, 1.0);
      for (int i = 0; i < 400; ++i) {
        const int f = (t + i) % 26;
        const uint64_t bucket = static_cast<uint64_t>(i % 48);
        store.GetRow(f, bucket);
        store.ApplyRowGradient(f, bucket, grad, 0.01);
        store.MaterializedRows();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CHECK_TRUE(store.MaterializedRows() >= 48);
}

}  // namespace

int main() {
  ThreadPoolSmoke();
  ShardQueueSmoke();
  EmbStoreSmoke();
  EmbStoreBatchedSmoke();
  std::printf("tsan smoke: ok\n");
  return 0;
}
