// Aggregate phase (aggregate_fanin; ltc_cli --push-to into
// --aggregate --serve): K in-process node tables, each fed an
// item-partitioned slice of the stream. At every epoch each node pushes
// a finalized clone with SketchPusher over loopback to a QueryServer
// with an AggregatorCore attached; a final TOPK runs over the wire. Push
// serialization, merging and republishing do almost all the work.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "core/read_snapshot.h"
#include "server/aggregator.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "server/push_client.h"
#include "server/query_server.h"
#include "wire_client.h"

namespace perfbench {
namespace {

namespace srv = ltc::server;

constexpr uint64_t kNodes = 4;
constexpr uint64_t kEpochs = 32;

uint64_t NodeOf(ltc::ItemId item) {
  return (item * 0xC2B2AE3D27D4EB4FULL >> 40) % kNodes;
}

class AggregatePhase final : public Phase {
 public:
  explicit AggregatePhase(const PhaseContext& c);

  void Round(int round) override;
  void Report() override;

 private:
  // A second in-process core given the same final pushes; times the
  // pushes of the last epoch.
  void Probe(const std::vector<ltc::Ltc>& finals, const ltc::Ltc& fold);

  const PhaseContext c_;
  const ltc::LtcConfig config_;
  const srv::NumericKeyCodec codec_;
  // Each node's slice, and where each epoch ends in it.
  std::vector<std::vector<ltc::Record>> slices_;
  std::vector<std::vector<size_t>> epoch_ends_;

  std::vector<double> push_p50_, push_all_;
  uint64_t retries_ = 0;
  Accuracy accuracy_;
};

AggregatePhase::AggregatePhase(const PhaseContext& c)
    : c_(c),
      config_(PaperConfig(c.input)),
      slices_(kNodes),
      epoch_ends_(kNodes) {
  const std::vector<ltc::Record>& records = c.input.records();
  const uint64_t n = records.size();
  for (uint64_t e = 0; e < kEpochs; ++e) {
    for (uint64_t i = n * e / kEpochs; i < n * (e + 1) / kEpochs; ++i) {
      slices_[NodeOf(records[i].item)].push_back(records[i]);
    }
    for (uint64_t node = 0; node < kNodes; ++node) {
      epoch_ends_[node].push_back(slices_[node].size());
    }
  }
}

void AggregatePhase::Round(int round) {
  Results& results = c_.results;
  Span round_span("aggregate.round");
  const uint64_t setup_start = NowNs();
  ltc::ReadSnapshotHub hub;
  srv::AggregatorCore aggregator(config_, &hub);
  srv::QueryServerConfig server_config;
  server_config.max_push_frame_bytes = srv::kMaxPushFrameBytes;
  srv::QueryServer server(hub, codec_, 0, server_config);
  server.AttachAggregator(&aggregator);
  std::string error;
  if (!server.Start(&error)) {
    results.Check(false, "aggregator server did not start: " + error);
    return;
  }
  std::vector<ltc::Ltc> nodes(kNodes, ltc::Ltc(config_));
  std::vector<std::unique_ptr<srv::TcpPushTransport>> transports;
  std::vector<std::unique_ptr<srv::SketchPusher>> pushers;
  for (uint64_t node = 0; node < kNodes; ++node) {
    srv::SketchPusherConfig push_config;
    push_config.port = server.port();
    push_config.node_id = node + 1;
    transports.push_back(std::make_unique<srv::TcpPushTransport>());
    pushers.push_back(std::make_unique<srv::SketchPusher>(
        push_config, transports.back().get()));
  }
  results.Setup("aggregate", (NowNs() - setup_start) / 1e9);

  std::vector<double> push_ms;
  std::vector<ltc::Ltc> finals;
  std::vector<size_t> fed(kNodes, 0);
  for (uint64_t e = 0; e < kEpochs; ++e) {
    for (uint64_t node = 0; node < kNodes; ++node) {
      const size_t end = epoch_ends_[node][e];
      nodes[node].InsertBatch(std::span<const ltc::Record>(
          slices_[node].data() + fed[node], end - fed[node]));
      fed[node] = end;
      // The push lag runs from the start of the push (clone, finalize,
      // serialize, send) until the aggregator's ack.
      const uint64_t p0 = NowNs();
      ltc::Ltc image = nodes[node].CloneAtBarrier();
      image.Finalize();
      srv::SketchPusher::Result result;
      {
        Span span("push.deliver");
        result = pushers[node]->Push(image, e + 1, end);
      }
      push_ms.push_back((NowNs() - p0) / 1e6);
      results.Count("aggregate.pushes", 1,
                    result.delivered && result.applied ? 0 : 1);
      if (e + 1 == kEpochs) finals.push_back(std::move(image));
    }
  }
  for (const auto& pusher : pushers) retries_ += pusher->retries();
  push_p50_.push_back(Median(push_ms));
  push_all_.insert(push_all_.end(), push_ms.begin(), push_ms.end());

  // The reference: this benchmark's own node-id-ordered fold.
  ltc::Ltc fold(config_);
  for (const ltc::Ltc& image : finals) {
    Span span("core.merge");
    results.Check(fold.MergeFrom(image), "final images do not merge");
  }
  const auto expected = fold.TopK(kTopK);
  WireClient client;
  std::optional<srv::DecodedResponse> decoded;
  if (client.Connect(server.port()) &&
      client.Send(srv::EncodeFrame(srv::EncodeTopKRequest(kTopK)))) {
    const auto payload = client.Receive();
    if (payload) decoded = srv::DecodeResponse(srv::Opcode::kTopK, *payload);
  }
  results.Count("aggregate.topk", 1,
                decoded && decoded->status == srv::Status::kOk ? 0 : 1);
  bool same = decoded && decoded->topk.size() == expected.size();
  for (size_t i = 0; same && i < expected.size(); ++i) {
    const srv::TopKEntry& got = decoded->topk[i];
    same = got.key == std::to_string(expected[i].item) &&
           got.frequency == expected[i].frequency &&
           got.persistency == expected[i].persistency &&
           got.significance == expected[i].significance;
  }
  results.Check(same, "aggregate TOPK differs from the node-ordered fold");
  accuracy_ = Score(ToReported(expected), c_.truth);
  results.Check(accuracy_.precision >= c_.input.shape.precision_floor,
                "aggregate precision " + std::to_string(accuracy_.precision) +
                    " below floor");
  client.Close();
  server.Stop();
  if (c_.settings.trace && round == 0) Probe(finals, fold);
}

void AggregatePhase::Probe(const std::vector<ltc::Ltc>& finals,
                           const ltc::Ltc& fold) {
  // The shadow core starts where the live one stood before the last
  // epoch: every node present, a hub attached. Each timed push then
  // refolds all kNodes images and republishes, as in the live run.
  ltc::ReadSnapshotHub hub;
  srv::AggregatorCore shadow(config_, &hub);
  std::vector<srv::PushRequest> pushes(kNodes);
  for (uint64_t node = 0; node < kNodes; ++node) {
    srv::PushRequest& push = pushes[node];
    push.node_id = node + 1;
    push.epoch_seq = kEpochs - 1;
    push.records = epoch_ends_[node].back();
    {
      Span span("core.serialize");
      push.payload = Bytes(finals[node]);
    }
    c_.results.Check(shadow.ApplyPush(push).applied,
                     "shadow aggregator did not apply a push");
  }
  for (srv::PushRequest& push : pushes) {
    push.epoch_seq = kEpochs;
    Span span("agg.apply");
    c_.results.Check(shadow.ApplyPush(push).applied,
                     "shadow aggregator did not apply a push");
  }
  c_.results.Check(shadow.SerializeMerged() == Bytes(fold),
                   "shadow aggregate differs from the fold");
}

void AggregatePhase::Report() {
  Results& results = c_.results;
  results.RoundMetric("push_lag_p50_ms", push_p50_, "ms");
  std::fprintf(stderr,
               "aggregate: %llu nodes x %llu epochs; top-%zu precision "
               "%.4f, ARE %.6f\n",
               static_cast<unsigned long long>(kNodes),
               static_cast<unsigned long long>(kEpochs), kTopK,
               accuracy_.precision, accuracy_.are);
  if (!c_.settings.trace) return;

  results.Metric("agg.precision", accuracy_.precision, "ratio", false);
  results.Metric("core.serialize_us", MeanSpanUs("core.serialize"), "us",
                 false);
  results.Metric("core.merge_us", MeanSpanUs("core.merge"), "us", false);
  results.Metric("push.retries", static_cast<double>(retries_), "count",
                 false);
  results.Metric("agg.apply_ms", MeanSpanUs("agg.apply") / 1e3, "ms", false);
  // Did not repeat within the largest bound allowed (perfbench/README.md);
  // taken over every push of the run.
  results.Metric("push.lag_p90_ms", Percentile(push_all_, 0.90), "ms", false);
}

}  // namespace

std::unique_ptr<Phase> MakeAggregatePhase(const PhaseContext& context) {
  return std::make_unique<AggregatePhase>(context);
}

}  // namespace perfbench
