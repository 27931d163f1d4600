#ifndef DLROVER_DLRM_MINI_DLRM_H_
#define DLROVER_DLRM_MINI_DLRM_H_

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/matrix.h"
#include "dlrm/criteo_synth.h"
#include "dlrm/emb_store.h"
#include "ps/model_profile.h"

namespace dlrover {

/// Configuration of the mini-DLRM used in the convergence experiments.
/// Small enough to train quickly, structurally faithful: per-feature hashed
/// embedding tables, a dense-feature projection, an architecture-specific
/// interaction head and an MLP tower, trained with async-PS semantics.
struct MiniDlrmConfig {
  ModelKind arch = ModelKind::kWideDeep;
  int emb_dim = 8;
  uint64_t hash_buckets = 8192;  // per categorical feature
  std::vector<int> mlp_hidden = {64, 32};
  int cross_layers = 2;  // DCN head
  int fm_maps = 8;       // xDeepFM-lite (FM-style CIN approximation) head
  double init_scale = 0.05;
  uint64_t seed = 7;
};

/// Dense (non-embedding) parameters: copied wholesale into worker
/// snapshots, like pulling the dense part from a PS.
struct DenseParams {
  Matrix dense_proj;                     // emb_dim x 13
  std::vector<Matrix> mlp_w;             // per layer: out x in
  std::vector<std::vector<double>> mlp_b;
  std::vector<std::vector<double>> cross_w;  // DCN: per layer, size n0
  std::vector<std::vector<double>> cross_b;
  std::vector<double> cross_out_w;           // size n0
  std::vector<std::vector<double>> fm_proj;  // fm_maps x emb_dim
  std::vector<double> fm_w;                  // fm_maps
  double bias = 0.0;
};

/// Sparse gradients/rows keyed by (feature, bucket).
struct SparseRows {
  /// embedding rows: per feature, bucket -> vector<emb_dim>.
  std::vector<std::unordered_map<uint64_t, std::vector<double>>> emb;
  /// wide scalar weights (Wide&Deep head): per feature, bucket -> value.
  std::vector<std::unordered_map<uint64_t, double>> wide;
};

/// A worker's pulled view of the parameters: full dense copy + only the
/// embedding/wide rows its batch touches (as a real PS worker pulls).
struct ParamSnapshot {
  DenseParams dense;
  SparseRows rows;
};

/// Gradients produced by one mini-batch, mirroring the snapshot layout.
struct DlrmGradients {
  DenseParams dense;  // same shapes, holding gradient values
  SparseRows rows;
};

/// Serialized full model state: every dense parameter flattened in a fixed
/// traversal order plus the canonical sparse-store dump. This is the
/// payload a model checkpoint stores and checksums; the layout depends only
/// on the model config, never on thread interleaving.
struct DlrmStateBlob {
  std::vector<double> dense;
  EmbStoreSnapshot sparse;
};

/// One batch's pending gradient, everything PushBatch merges into the live
/// model: the dense gradient, the batch's sorted unique sparse keys and the
/// per-key row and wide gradients. Grouped so one std::swap can park a
/// computed gradient outside the workspace that produced it (the tick
/// trainer's workers share one workspace and each keeps only this).
struct DlrmBatchGrads {
  DenseParams dense;
  std::vector<uint64_t> keys;  // sorted unique packed (feature,bucket) keys
  std::vector<double> rows;    // keys.size() * emb_dim
  std::vector<double> wide;    // keys.size() (Wide&Deep only)
};

/// Reusable workspace for the allocation-free batch hot path
/// (MiniDlrm::PullBatch / ComputeBatch / PushBatch). Owns every buffer one
/// training step needs: the pulled dense copy, the batch's gathered rows,
/// the gradient that PushBatch merges into the live model, and the flat
/// forward/backward scratch. All buffers are sized on first use and reused
/// after that, so a warmed steady-state batch performs zero heap
/// allocations. Never shared across threads concurrently.
/// Treat the members as opaque — only `batch` is caller-filled (via
/// CriteoSynth::FillBatch), and `grads` may be swapped out and back whole;
/// everything else belongs to MiniDlrm.
struct DlrmBatchWork {
  CriteoBatch batch;

  // Pulled parameters (one consistent dense version + the batch's rows).
  DenseParams dense;
  std::vector<double> rows;     // grads.keys.size() * emb_dim gathered rows
  std::vector<double> wide;     // grads.keys.size() wide weights (Wide&Deep)
  std::vector<uint32_t> slot;   // (sample * 26 + feature) -> index into keys

  // The batch's keys and gradient accumulators, merged at commit by
  // PushBatch.
  DlrmBatchGrads grads;

  // Forward/backward scratch (flat, reused). x0 doubles as the
  // concatenated field vector: field f lives at [f * emb_dim, ...).
  std::vector<double> x0;
  std::vector<std::vector<double>> mlp_pre;
  std::vector<std::vector<double>> mlp_post;
  std::vector<double> dfields;
  std::vector<double> dx0;
  std::vector<double> delta;
  std::vector<double> prev;
  std::vector<std::vector<double>> cross_x;  // DCN: x_0 .. x_L
  std::vector<double> cross_s;
  std::vector<double> dxl;
  std::vector<double> dprev;
  std::vector<double> fm_t;  // xDeepFM: fm_maps x 27, flat
  std::vector<double> fm_f;
  std::vector<double> fm_s;

  // Key-dedup and stripe-grouping scratch.
  std::vector<std::pair<uint64_t, uint32_t>> key_scratch;
  EmbStore::BatchScratch store_scratch;
};

/// A small but real deep recommendation model with three selectable
/// architectures (the paper's Model-X/Y/Z):
///   Wide&Deep — MLP tower + wide per-id linear head;
///   xDeepFM   — MLP tower + FM-style compressed interaction head
///               (a CIN approximation; see DESIGN.md);
///   DCN       — MLP tower + explicit cross-layer head.
/// Training is exception-free, deterministic given the seed, and built for
/// async-PS semantics: PullBatch / ComputeBatch / PushBatch emulate pull /
/// compute / push on flat reusable buffers. TakeSnapshot /
/// ForwardBackward(snapshot) / ApplyGradients are the per-sample reference
/// implementation of the same three steps, kept as the oracle the batch
/// kernels are tested against.
///
/// Thread safety: every training call, Predict, Evaluate and
/// MaterializedRows may be called concurrently from worker threads
/// (ExecMode::kThreads), each with its own DlrmBatchWork. The dense
/// parameters are guarded by a reader/writer lock (pulls read-lock, pushes
/// write-lock); embedding and wide rows live in a lock-striped EmbStore so
/// concurrent pulls and pushes contend only per stripe. dense_params() is
/// NOT synchronized — single-threaded test use only.
class MiniDlrm {
 public:
  explicit MiniDlrm(const MiniDlrmConfig& config);

  /// Reference path. Pulls the parameters a worker needs to process `batch`.
  ParamSnapshot TakeSnapshot(const CriteoBatch& batch) const;

  /// Computes mean logloss and gradients of `batch` against `snapshot`
  /// (possibly stale). Gradients are averaged over the batch.
  double ForwardBackward(const CriteoBatch& batch,
                         const ParamSnapshot& snapshot,
                         DlrmGradients* grads) const;

  /// Pushes gradients into the live parameters (async SGD step).
  void ApplyGradients(const DlrmGradients& grads, double learning_rate);

  /// Allocation-free batch hot path: the production training path of both
  /// execution modes. The three calls mirror pull / compute / push against
  /// a reusable workspace:
  ///   PullBatch    — dense copy + batched sparse gather of the batch's
  ///                  deduplicated keys (one lock round-trip per touched
  ///                  stripe instead of one per key);
  ///   ComputeBatch — forward/backward into `work->grads`; returns mean
  ///                  logloss. A pure function of the pulled view;
  ///   PushBatch    — merges `work->grads` into the live model: dense
  ///                  axpy under the write lock, then the sharded sparse
  ///                  scatter with per-stripe locking.
  /// The arithmetic is statement-for-statement identical to the reference
  /// TakeSnapshot / ForwardBackward / ApplyGradients path: for the same
  /// batch against the same parameters both produce bit-identical losses
  /// and parameter updates (pinned by mini_dlrm_test). Thread-safe with
  /// one DlrmBatchWork per thread.
  void PullBatch(DlrmBatchWork* work) const;
  double ComputeBatch(DlrmBatchWork* work) const;
  void PushBatch(DlrmBatchWork* work, double learning_rate);

  /// Click probabilities under the live parameters: one consistent dense
  /// pull per call, then the forward kernel over fixed-size chunks of the
  /// batch through one local workspace (no gradient buffers).
  std::vector<double> Predict(const CriteoBatch& batch) const;

  /// Mean logloss of the live parameters on a batch.
  double Evaluate(const CriteoBatch& batch) const;

  /// Number of embedding rows materialized so far (memory growth proxy).
  size_t MaterializedRows() const;

  /// Serializes the complete model (dense + materialized sparse state) into
  /// `out`. Takes the dense read lock and the stripe locks one at a time;
  /// for a consistent cut the caller must quiesce concurrent pushes (the
  /// trainer holds its commit gate exclusively while checkpointing).
  void ExportState(DlrmStateBlob* out) const;

  /// Restores the model from a blob produced by ExportState on a model of
  /// the same config. Unmaterialized rows revert to their deterministic
  /// lazy init. Rejects blobs whose dense length or sparse shape does not
  /// match this model.
  Status ImportState(const DlrmStateBlob& blob);

  const MiniDlrmConfig& config() const { return config_; }
  int input_width() const { return n0_; }

  /// Direct parameter access for tests (gradient checking).
  DenseParams& dense_params() { return params_; }
  const DenseParams& dense_params() const { return params_; }

 private:
  struct SampleCache;  // forward activations for one sample

  uint64_t Bucket(int feature, uint64_t id) const {
    return (id * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(feature)) %
           config_.hash_buckets;
  }

  double ForwardSample(const CriteoSample& sample, const DenseParams& dense,
                       const SparseRows& rows, SampleCache* cache) const;
  void BackwardSample(const CriteoSample& sample, const DenseParams& dense,
                      const SparseRows& rows, const SampleCache& cache,
                      double dlogit, DlrmGradients* grads) const;

  /// Sizes the fixed (batch-independent) forward buffers of `work` on first
  /// use, and with `backward` the backward scratch and gradient shapes too.
  void EnsureWork(DlrmBatchWork* work, bool backward) const;
  /// Copies the dense parameters into `work` under the read lock.
  void PullDense(DlrmBatchWork* work) const;
  /// Dedups the keys of `samples[0, nsamples)` into work->grads.keys, fills
  /// the slot table and gathers the rows (and wide weights) they name.
  void GatherBatchRows(const CriteoSample* samples, size_t nsamples,
                       DlrmBatchWork* work) const;
  /// Flat-buffer twins of ForwardSample/BackwardSample with identical
  /// floating-point statement order; sparse grads go to work.grads.rows /
  /// work.grads.wide via the batch's slot table.
  double ForwardSampleFast(const CriteoSample& sample, size_t sample_idx,
                           DlrmBatchWork& work) const;
  void BackwardSampleFast(const CriteoSample& sample, size_t sample_idx,
                          double dlogit, DlrmBatchWork& work) const;
  /// Dense half of a push; caller holds params_mu_ exclusively. Shared by
  /// ApplyGradients and PushBatch so both apply bit-identical updates.
  void ApplyDenseGradientsLocked(const DenseParams& grads,
                                 double learning_rate);

  MiniDlrmConfig config_;
  int n0_ = 0;  // concatenated field width = (1 + 26) * emb_dim
  DenseParams params_;
  mutable std::shared_mutex params_mu_;  // guards params_ (dense half)
  EmbStore store_;  // lazily materialized embedding/wide rows, lock-striped
};

}  // namespace dlrover

#endif  // DLROVER_DLRM_MINI_DLRM_H_
