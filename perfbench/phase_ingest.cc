// Ingest phase (ingest_caida): the paper's default
// table over the whole stream, fed in 64K-record chunks as ltc_cli feeds
// a trace, through the sharded IngestPipeline and through one
// Ltc::InsertBatch per chunk (ltc_cli's default path). Nearly all the
// work is in core (probe and sweep) and ingest (routing and rings).
#include <algorithm>
#include <memory>
#include <span>

#include "bench.h"
#include "core/sharded_ltc.h"
#include "ingest/ingest_pipeline.h"

namespace perfbench {
namespace {

// Pipeline passes per round, each on fresh tables. A pass takes about
// 0.1 s, and on a shared host single passes swing by 2x, so a round
// takes eight; the one-table path (a per-layer figure) runs once.
constexpr int kPipelinePasses = 8;

// Feeds `records` in kChunk pieces to `insert`, one span per chunk.
template <typename Insert>
void FeedChunks(std::span<const ltc::Record> records, const char* span_name,
                Insert&& insert) {
  for (size_t i = 0; i < records.size(); i += kChunk) {
    const size_t n = std::min(kChunk, records.size() - i);
    Span span(span_name, n);
    insert(records.subspan(i, n));
  }
}

double Mrps(uint64_t records, uint64_t ns) {
  return static_cast<double>(records) / (static_cast<double>(ns) / 1e9) / 1e6;
}

class IngestPhase final : public Phase {
 public:
  explicit IngestPhase(const PhaseContext& c)
      : c_(c),
        config_(PaperConfig(c.input)),
        shards_(std::clamp<uint32_t>(c.settings.hardware_threads - 1, 1, 3)),
        records_(c.input.records()) {
    // The reference the pipeline must reproduce byte for byte:
    // sequential ShardedLtc::InsertBatch of the same stream.
    ltc::ShardedLtc sequential(config_, shards_);
    FeedChunks(records_, "core.sharded_insert",
               [&](auto chunk) { sequential.InsertBatch(chunk); });
    reference_ = Bytes(sequential);
  }

  void Round(int round) override {
    Span round_span("ingest.round");
    for (int pass = 0; pass < kPipelinePasses; ++pass) PipelinePass();
    SinglePass(round == 0);
  }

  void Report() override;

 private:
  void PipelinePass();
  void SinglePass(bool check_every_cell);
  // The final top-k must be accurate and its persistency bounded by the
  // stream's period count (a table cannot have seen more periods).
  Accuracy CheckTopK(const std::vector<ltc::SignificanceReport>& top,
                     const std::string& path);

  const PhaseContext c_;
  const ltc::LtcConfig config_;
  const uint32_t shards_;
  const std::span<const ltc::Record> records_;
  std::string reference_;

  std::vector<double> pipeline_mrps_, single_mrps_, skew_;
  uint64_t drained_ = 0, batches_ = 0;
  size_t depth_max_ = 0;
  Accuracy accuracy_;
};

Accuracy IngestPhase::CheckTopK(const std::vector<ltc::SignificanceReport>& top,
                                const std::string& path) {
  const Input& input = c_.input;
  const Accuracy accuracy = Score(ToReported(top), c_.truth);
  c_.results.Check(accuracy.precision >= input.shape.precision_floor,
                   path + ": precision " + std::to_string(accuracy.precision) +
                       " below floor");
  c_.results.Check(accuracy.are <= input.shape.are_ceiling,
                   path + ": ARE " + std::to_string(accuracy.are) +
                       " above ceiling");
  bool bounded = true;
  for (const auto& r : top) bounded &= r.persistency <= input.periods();
  c_.results.Check(bounded,
                   path + ": a persistency estimate exceeds the periods");
  return accuracy;
}

void IngestPhase::PipelinePass() {
  Results& results = c_.results;
  const uint64_t n = records_.size();
  const uint64_t setup_start = NowNs();
  ltc::ShardedLtc sink(config_, shards_);
  auto pipeline = std::make_unique<ltc::IngestPipeline>(sink);
  results.Setup("ingest", (NowNs() - setup_start) / 1e9);

  // Timed from the first PushBatch until the final Flush returns.
  const uint64_t t0 = NowNs();
  FeedChunks(records_, "ingest.push_batch", [&](auto chunk) {
    pipeline->PushBatch(chunk);
    if (c_.settings.trace) {
      for (uint32_t s = 0; s < shards_; ++s) {
        depth_max_ = std::max(depth_max_, pipeline->ShardStatsOf(s).queue_depth);
      }
    }
  });
  bool flushed = false;
  {
    Span span("ingest.flush");
    flushed = pipeline->Flush();
  }
  pipeline_mrps_.push_back(Mrps(n, NowNs() - t0));
  results.Check(flushed, "pipeline Flush reported a stall");
  results.Count("ingest.records", n,
                n - std::min(n, pipeline->TotalEnqueued()));
  results.Check(pipeline->TotalDropped() == 0 && pipeline->TotalShed() == 0,
                "pipeline dropped or shed records");
  double largest = 0.0, total = 0.0;
  for (uint32_t s = 0; s < shards_; ++s) {
    const ltc::IngestShardStats stats = pipeline->ShardStatsOf(s);
    drained_ += stats.drained;
    batches_ += stats.batches;
    largest = std::max(largest, static_cast<double>(stats.drained));
    total += static_cast<double>(stats.drained);
  }
  skew_.push_back(largest / (total / shards_));
  pipeline->Stop();
  results.Check(Bytes(sink) == reference_,
                "pipeline tables differ from sequential ShardedLtc");
  for (uint32_t s = 0; s < shards_; ++s) {
    results.Check(sink.shard(s).current_period() == c_.truth.last_period,
                  "a pipeline shard did not reach the last period");
  }
  sink.Finalize();
  CheckTopK(sink.TopK(kTopK), "pipeline");
}

void IngestPhase::SinglePass(bool check_every_cell) {
  Results& results = c_.results;
  const uint64_t setup_start = NowNs();
  ltc::Ltc single(config_);
  results.Setup("ingest.single", (NowNs() - setup_start) / 1e9);

  // One InsertBatch per chunk, then Finalize.
  const uint64_t t0 = NowNs();
  FeedChunks(records_, "core.insert_paced",
             [&](auto chunk) { single.InsertBatch(chunk); });
  {
    Span span("core.finalize");
    single.Finalize();
  }
  single_mrps_.push_back(Mrps(records_.size(), NowNs() - t0));
  results.Count("single.records", records_.size(), 0);
  results.Check(single.current_period() == c_.truth.last_period,
                "the single table did not reach the last period");
  accuracy_ = CheckTopK(single.TopK(kTopK), "single table");
  if (check_every_cell) {
    bool bounded = true;
    for (const auto& r : single.TopK(single.num_cells())) {
      bounded &= r.persistency <= c_.input.periods();
    }
    results.Check(bounded, "a tracked persistency exceeds the periods");
  }
}

void IngestPhase::Report() {
  Results& results = c_.results;
  results.RoundMetric("ingest_mrps", pipeline_mrps_, "Mrec/s");
  std::fprintf(stderr,
               "ingest: %u shards; single-table top-%zu precision %.4f, "
               "ARE %.6f\n",
               shards_, kTopK, accuracy_.precision, accuracy_.are);
  if (!c_.settings.trace) return;

  // The one-table rate swung between 12 and 17 Mrec/s from run to run
  // on a shared VM (spread 0.27 over ten seeds), past any usable bound,
  // so it is a per-layer figure; the pipeline rate above stays steady.
  results.Metric("core.single_table_mrps", Median(single_mrps_), "Mrec/s",
                 false);
  // Accuracy is fixed by the seed (the tables are deterministic), so it
  // is a correctness gate above and a per-layer figure here.
  results.Metric("core.topk_precision", accuracy_.precision, "ratio", false);
  results.Metric("core.topk_are", accuracy_.are, "ratio", false);
  // The same records on a table whose one period outlasts the stream,
  // so the CLOCK never sweeps: the gap to insert_paced is the sweep.
  {
    ltc::LtcConfig idle_config = config_;
    idle_config.period_seconds = 1e12;
    ltc::Ltc idle(idle_config);
    FeedChunks(records_, "core.insert_sweep_idle",
               [&](auto chunk) { idle.InsertBatch(chunk); });
  }
  SpanRecorder& rec = SpanRecorder::Get();
  auto per_item_ns = [&](const char* name) {
    const SpanRecorder::Total t = rec.TotalOf(name);
    return t.ns / static_cast<double>(std::max<uint64_t>(t.items, 1));
  };
  std::vector<double> push_us;
  for (const SpanEvent& e : rec.Named("ingest.push_batch")) {
    push_us.push_back((e.end_ns - e.start_ns) / 1e3);
  }
  results.Metric("core.insert_paced_ns", per_item_ns("core.insert_paced"),
                 "ns", false);
  results.Metric("core.insert_sweep_idle_ns",
                 per_item_ns("core.insert_sweep_idle"), "ns", false);
  results.Metric("core.sharded_insert_ns", per_item_ns("core.sharded_insert"),
                 "ns", false);
  results.Metric("core.finalize_us", MeanSpanUs("core.finalize"), "us", false);
  results.Metric("ingest.push_batch_us_p50", Median(push_us), "us", false);
  results.Metric("ingest.push_batch_us_p99", Percentile(push_us, 0.99), "us",
                 false);
  results.Metric("ingest.flush_us", MeanSpanUs("ingest.flush"), "us", false);
  results.Metric("ingest.worker_batch_records",
                 static_cast<double>(drained_) /
                     static_cast<double>(std::max<uint64_t>(batches_, 1)),
                 "records", false);
  results.Metric("ingest.drain_skew", Median(skew_), "ratio", false);
  results.Metric("ingest.queue_depth_max", static_cast<double>(depth_max_),
                 "records", false);
}

}  // namespace

std::unique_ptr<Phase> MakeIngestPhase(const PhaseContext& context) {
  return std::make_unique<IngestPhase>(context);
}

}  // namespace perfbench
