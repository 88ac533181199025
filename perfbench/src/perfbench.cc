// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload table3|serve-replay|city-2k --seed N
//             --seconds S --trace 0|1 --out record.json [--param k=v ...]
//
// Every workload constant (rates, burst sizes, batch counts, thread counts)
// arrives as a --param from perfbench/spec.json; none is derived at run
// time. The program times calls into the library's public functions from
// outside and reads the counters the library already keeps (OpProfiler,
// BufferPool stats, LatencySummary, ResponseCacheStats, PredictResponse
// timings). It writes one JSON record to --out: correctness, attempted and
// failed counts, the metrics, wall and CPU seconds, and with --trace 1 the
// span log and per-span self times. perfbench/run.py builds this program,
// adds the host context and prints the benchmark's result line.
//
// With --trace 0 the timed phase runs once, untraced, for --seconds. With
// --trace 1 it runs twice for --seconds / 2 each: untraced, then with the
// profilers and spans on; the per-layer metrics come from the traced pass
// and the difference between the passes is the tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/stats.h"
#include "src/data/dataset.h"
#include "src/eval/trainer.h"
#include "src/exec/execution_context.h"
#include "src/exec/shard.h"
#include "src/graph/partition.h"
#include "src/models/common.h"
#include "src/models/dcrnn.h"
#include "src/models/traffic_model.h"
#include "src/serve/model_registry.h"
#include "src/serve/server.h"
#include "src/tensor/partitioned.h"
#include "src/tensor/tensor.h"
#include "src/util/stopwatch.h"

namespace tb = trafficbench;
using perfbench::SpanLog;

namespace {

using Clock = std::chrono::steady_clock;

// ---- Command line -----------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::map<std::string, std::string> params;

  double Num(const std::string& key) const {
    auto it = params.find(key);
    if (it == params.end()) {
      throw std::runtime_error("missing --param " + key);
    }
    return std::stod(it->second);
  }
  int64_t Int(const std::string& key) const {
    return static_cast<int64_t>(Num(key));
  }
  std::vector<double> List(const std::string& key) const {
    auto it = params.find(key);
    if (it == params.end()) {
      throw std::runtime_error("missing --param " + key);
    }
    std::vector<double> values;
    std::stringstream stream(it->second);
    std::string item;
    while (std::getline(stream, item, ',')) values.push_back(std::stod(item));
    return values;
  }
};

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out") {
      options.out = value;
    } else if (key == "--param") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("--param needs key=value: " + value);
      }
      options.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (options.workload.empty() || options.out.empty() ||
      !(options.seconds > 0.0)) {
    throw std::runtime_error("need --workload, --out and --seconds > 0");
  }
  return options;
}

// ---- Process clocks ---------------------------------------------------------

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  return perfbench::Percentile(std::move(values), 50.0);
}

/// The fastest of a pass's rounds of identical work. Host interference
/// (other tenants, preemption) and the first round's cold buffer pools only
/// ever add time, so the minimum is the steadiest estimate of the work's
/// own cost.
double BestRound(const std::vector<double>& rounds) {
  return *std::min_element(rounds.begin(), rounds.end());
}

/// Wall and CPU seconds of one timed pass.
class PassClock {
 public:
  PassClock() : cpu_(CpuSeconds()) {}
  double wall() const { return watch_.ElapsedSeconds(); }
  double cpu() const { return CpuSeconds() - cpu_; }

 private:
  tb::Stopwatch watch_;
  double cpu_;
};

// ---- The run record ---------------------------------------------------------

/// What one timed pass measured, in the units of the end-to-end metrics.
struct PassResult {
  double windows_per_s = 0.0;
  double latency_ms = 0.0;
  /// Wall seconds per unit of timed work; traced / untraced - 1 of this is
  /// the tracing overhead.
  double cost_basis = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// p99 of how late an open-loop sender submitted its requests, ms (0 for
  /// the batch workloads); run.py flags the run when it is too late.
  double sender_late_ms = 0.0;
};

struct Record {
  explicit Record(const Options& options) : spans(options.trace) {}

  SpanLog spans;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  /// Wall seconds of each set-up of the run; setup_s is their median.
  std::vector<double> setup_times;
  int threads = 1;
  /// Threads that stay runnable through the whole timed pass (1 for the
  /// batch workloads, 0 for the open loops, which idle between arrivals).
  int busy_threads = 0;
  PassResult untraced;

  void Fail(const std::string& why) {
    if (failures.size() < 32) failures.push_back(why);
    std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
  }
};

const std::vector<tb::exec::OpKind>& ReportedKinds() {
  using K = tb::exec::OpKind;
  static const std::vector<K> kinds = {
      K::kMatMul, K::kMatMulBackward, K::kSpMM,         K::kSpMMBackward,
      K::kConv2d, K::kConv2dBackward, K::kBinary,       K::kBinaryBackward,
      K::kUnary,  K::kDataMovement,   K::kFusedEpilogue};
  return kinds;
}

/// Every per-layer metric, zero until a layer the workload runs sets it;
/// run.py checks this set against BENCHMARK.json.
void DeclareLayerMetrics(Record* record) {
  std::map<std::string, double>& m = record->layer;
  for (const char* name :
       {"data.simulate_s", "models.build_s", "graph.partition_s",
        "graph.parts", "graph.edge_cut", "eval.shard_train_s",
        "eval.shard_eval_s", "tensor.pool_hit_rate", "tensor.pool_mib_served",
        "optim.adam_s", "exec.cpu_util", "plan.compile_s", "plan.active",
        "serve.p50_ms", "serve.p99_ms", "serve.queue_p50_ms", "serve.queue_p99_ms",
        "serve.compute_p50_ms", "serve.compute_p99_ms", "serve.post_p50_ms",
        "serve.mean_batch", "serve.mean_queue_depth", "serve.tier0_share",
        "serve.shed_share", "serve.max_rate", "serve.generator_late_ms",
        "trace.overhead_share", "trace.unattributed_share"}) {
    m[name] = 0.0;
  }
  for (const std::string& model : tb::models::PaperModelNames()) {
    m["eval.train_s." + model] = 0.0;
    m["eval.infer_s." + model] = 0.0;
    m["plan.ms_per_window." + model] = 0.0;
    m["plan.eager_ms_per_window." + model] = 0.0;
  }
  for (tb::exec::OpKind kind : ReportedKinds()) {
    const std::string base = std::string("tensor.") + tb::exec::OpKindName(kind);
    m[base + ".s"] = 0.0;
    m[base + ".gflops"] = 0.0;
  }
}

/// Folds OpProfiler and BufferPool counters of the traced contexts into the
/// tensor/optim layer metrics.
void ReadProfilers(const std::vector<tb::exec::ExecutionContext*>& contexts,
                   Record* record) {
  std::map<std::string, double>& m = record->layer;
  std::vector<tb::exec::OpKind> kinds = ReportedKinds();
  kinds.push_back(tb::exec::OpKind::kAdamStep);
  for (tb::exec::OpKind kind : kinds) {
    double seconds = 0.0, flops = 0.0;
    for (const tb::exec::ExecutionContext* context : contexts) {
      const tb::exec::OpStats stats = context->profiler().stats(kind);
      seconds += stats.seconds;
      flops += stats.flops;
    }
    if (kind == tb::exec::OpKind::kAdamStep) {
      m["optim.adam_s"] = seconds;
      continue;
    }
    const std::string base = std::string("tensor.") + tb::exec::OpKindName(kind);
    m[base + ".s"] = seconds;
    m[base + ".gflops"] = seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
  }
  int64_t hits = 0, acquires = 0, served = 0;
  for (const tb::exec::ExecutionContext* context : contexts) {
    const tb::BufferPool::Stats stats = context->buffer_pool()->stats();
    hits += stats.hits;
    acquires += stats.hits + stats.misses;
    served += stats.served_bytes;
  }
  m["tensor.pool_hit_rate"] =
      acquires > 0 ? static_cast<double>(hits) / static_cast<double>(acquires)
                   : 0.0;
  m["tensor.pool_mib_served"] = static_cast<double>(served) / (1024.0 * 1024.0);
}

bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

bool SameBits(const tb::Tensor& a, const tb::Tensor& b) {
  const std::vector<float> x = a.ToVector();
  const std::vector<float> y = b.ToVector();
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// The dataset is the profile's own fixed fixture, so every seed measures
/// the same network; --seed picks the windows, arrivals and initial weights.
tb::data::TrafficDataset Simulate(const std::string& profile_name,
                                  Record* record,
                                  std::vector<double>* seconds) {
  const tb::data::DatasetProfile profile =
      tb::data::ProfileByName(profile_name).value();
  tb::Stopwatch watch;
  SpanLog::Scope span(&record->spans, "data.simulate");
  tb::data::TrafficDataset dataset =
      tb::data::TrafficDataset::FromProfile(profile);
  seconds->push_back(watch.ElapsedSeconds());
  return dataset;
}

/// A seeded eval slice of `count` test windows: [begin, end).
std::pair<int64_t, int64_t> EvalSlice(const tb::data::TrafficDataset& dataset,
                                      int64_t count, uint64_t seed) {
  const tb::data::DatasetSplits splits = dataset.Splits();
  const int64_t room =
      std::max<int64_t>(1, splits.test_end - splits.test_begin - count + 1);
  std::mt19937_64 rng(seed);
  const int64_t begin =
      splits.test_begin + static_cast<int64_t>(rng() % static_cast<uint64_t>(room));
  return {begin, std::min(splits.test_end, begin + count)};
}

/// Runs `setup` `reps` times (each from scratch) and keeps the last state;
/// setup_s is the median wall time of one set-up.
template <typename State>
std::unique_ptr<State> RepeatSetup(
    int64_t reps, Record* record,
    const std::function<std::unique_ptr<State>()>& setup) {
  std::unique_ptr<State> state;
  for (int64_t i = 0; i < std::max<int64_t>(1, reps); ++i) {
    state.reset();  // the previous set-up's memory is released first
    tb::Stopwatch watch;
    SpanLog::Scope span(&record->spans, "setup");
    state = setup();
    record->setup_times.push_back(watch.ElapsedSeconds());
  }
  return state;
}

/// Runs the timed phase: once for --seconds untraced, or (--trace 1) an
/// untraced and a traced pass of --seconds / 2 each.
void RunPasses(const Options& options, Record* record,
               const std::function<PassResult(bool traced, double seconds)>&
                   pass) {
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  record->spans.set_enabled(false);
  record->untraced = pass(false, seconds);
  record->e2e["windows_per_s"] = record->untraced.windows_per_s;
  record->e2e["latency_ms"] = record->untraced.latency_ms;
  record->layer["exec.cpu_util"] =
      record->untraced.cpu_s /
      std::max(1e-9, record->untraced.wall_s * record->threads);
  if (!options.trace) return;

  record->spans.set_enabled(true);
  const int64_t root = record->spans.Begin("timed");
  const PassResult traced = pass(true, seconds);
  record->spans.End(root);
  record->layer["trace.overhead_share"] =
      traced.cost_basis / std::max(1e-12, record->untraced.cost_basis) - 1.0;
  // The part of the traced pass no layer span covers.
  const perfbench::Span& timed = record->spans.spans()[root];
  record->layer["trace.unattributed_share"] =
      perfbench::SelfTimes(record->spans.spans()).at("timed") /
      std::max(1e-12, timed.end - timed.start);
}

// ---- table3: Table III training + eager inference ---------------------------

struct Table3State {
  std::unique_ptr<tb::data::TrafficDataset> dataset;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<tb::models::TrafficModel>> models;
};

void RunTable3(const Options& options, Record* record) {
  const int threads = static_cast<int>(options.Int("threads"));
  const int64_t batch = options.Int("batch");
  const int64_t train_batches = options.Int("train_batches");
  const int64_t eval_windows = options.Int("eval_windows");
  record->threads = threads;
  record->busy_threads = 1;

  std::vector<double> simulate_s, build_s;
  auto state = RepeatSetup<Table3State>(
      options.Int("setup_reps"), record, [&] {
        auto s = std::make_unique<Table3State>();
        s->dataset = std::make_unique<tb::data::TrafficDataset>(
            Simulate("METR-LA-S", record, &simulate_s));
        tb::Stopwatch watch;
        SpanLog::Scope span(&record->spans, "models.build");
        const tb::models::ModelContext context =
            tb::models::MakeModelContext(*s->dataset, options.seed);
        for (const std::string& name : tb::models::PaperModelNames()) {
          s->names.push_back(name);
          s->models.push_back(tb::models::CreateModel(name, context));
        }
        build_s.push_back(watch.ElapsedSeconds());
        return s;
      });
  record->layer["data.simulate_s"] = Median(simulate_s);
  record->layer["models.build_s"] = Median(build_s);

  const auto [eval_begin, eval_end] =
      EvalSlice(*state->dataset, eval_windows, options.seed);
  tb::exec::ExecutionContext plain({.threads = threads, .profile = false});
  tb::exec::ExecutionContext profiled({.threads = threads, .profile = true});
  int64_t round_seed = 0;

  RunPasses(options, record, [&](bool traced, double seconds) {
    tb::exec::ExecutionContext* context = traced ? &profiled : &plain;
    // Per-model round times; each model's best round keeps a preempted or
    // cold round from moving the total.
    std::vector<std::vector<double>> train_s(state->models.size());
    std::vector<std::vector<double>> infer_s(state->models.size());
    int64_t train_windows = 0, infer_windows = 0;  // of one round
    PassClock clock;
    do {
      train_windows = infer_windows = 0;
      for (size_t i = 0; i < state->models.size(); ++i) {
        tb::models::TrafficModel* model = state->models[i].get();
        const std::string& name = state->names[i];
        tb::eval::TrainConfig config;
        config.epochs = 1;
        config.batch_size = batch;
        config.max_batches_per_epoch = train_batches;
        config.seed = options.seed + static_cast<uint64_t>(round_seed++);
        config.exec = context;
        tb::Stopwatch train_watch;
        tb::eval::TrainResult result;
        {
          SpanLog::Scope span(&record->spans, "eval.train." + name);
          result = tb::eval::TrainModel(model, *state->dataset, config);
        }
        train_s[i].push_back(train_watch.ElapsedSeconds());
        record->attempted += result.batches_per_epoch;
        record->failed += result.nonfinite_batches;
        if (!result.status.ok() || !AllFinite(result.epoch_losses)) {
          ++record->failed;
          record->Fail(name + " training: " + result.status.ToString());
        }
        train_windows += result.batches_per_epoch * batch;

        tb::eval::EvalOptions eval_options;
        eval_options.exec = context;
        tb::Stopwatch infer_watch;
        tb::eval::HorizonReport report;
        {
          SpanLog::Scope span(&record->spans, "eval.infer." + name);
          report = tb::eval::EvaluateModel(model, *state->dataset,
                                           eval_begin, eval_end,
                                           eval_options);
        }
        infer_s[i].push_back(infer_watch.ElapsedSeconds());
        ++record->attempted;
        if (!std::isfinite(report.average.mae) || report.windows <= 0) {
          ++record->failed;
          record->Fail(name + " eval MAE is not finite");
        }
        infer_windows += report.windows;
      }
    } while (clock.wall() < seconds);
    PassResult result;
    result.wall_s = clock.wall();
    result.cpu_s = clock.cpu();
    // One round's windows over the sum of the per-model best times.
    double train_round = 0.0, infer_round = 0.0;
    for (size_t i = 0; i < state->models.size(); ++i) {
      train_round += BestRound(train_s[i]);
      infer_round += BestRound(infer_s[i]);
      if (traced) {
        record->layer["eval.train_s." + state->names[i]] = BestRound(train_s[i]);
        record->layer["eval.infer_s." + state->names[i]] = BestRound(infer_s[i]);
      }
    }
    result.windows_per_s = train_windows / train_round;
    result.latency_ms = infer_round * 1e3 / infer_windows;
    result.cost_basis =
        (train_round + infer_round) / (train_windows + infer_windows);
    if (traced) ReadProfilers({&profiled}, record);
    return result;
  });
}

// ---- city-2k: sharded DCRNN on SYNTH-2K -------------------------------------

struct CityState {
  std::unique_ptr<tb::data::TrafficDataset> dataset;
  std::vector<std::unique_ptr<tb::models::TrafficModel>> replicas;
};

std::vector<tb::models::TrafficModel*> Pointers(
    const std::vector<std::unique_ptr<tb::models::TrafficModel>>& models) {
  std::vector<tb::models::TrafficModel*> out;
  for (const auto& model : models) out.push_back(model.get());
  return out;
}

/// graph.* metrics of the partitions DCRNN runs on. A DCRNN model keeps its
/// partitioned diffusion supports private, so the same supports are rebuilt
/// here through the public DiffusionSupports/MakeSupports (GraphSupport
/// partitions each one as CreateModel does) and read back: parts, the summed
/// edge cut (the halo volume of every hop) and the time of PartitionCsr on
/// each support. Traced runs only, after set-up, so setup_s never pays for it.
void DcrnnPartitionMetrics(const tb::data::TrafficDataset& dataset,
                           uint64_t seed, Record* record) {
  constexpr int kDcrnnDiffusionSteps = 2;  // as in src/models/dcrnn.cc
  const tb::models::ModelContext context =
      tb::models::MakeModelContext(dataset, seed);
  const std::vector<tb::models::GraphSupport> supports =
      tb::models::MakeSupports(tb::models::DiffusionSupports(
          tb::models::DenseAdjacency(context), kDcrnnDiffusionSteps));
  double partition_s = 0.0, edge_cut = 0.0, parts = 0.0;
  for (const tb::models::GraphSupport& support : supports) {
    if (!support.is_partitioned()) continue;
    const tb::sparse::PartitionedCsr& partitioned = *support.partitioned();
    tb::Stopwatch watch;
    {
      SpanLog::Scope span(&record->spans, "graph.partition");
      tb::graph::PartitionCsr(*partitioned.source(), partitioned.num_parts());
    }
    partition_s += watch.ElapsedSeconds();
    edge_cut += static_cast<double>(tb::graph::EdgeCut(
        *partitioned.source(), partitioned.partition()));
    parts = partitioned.num_parts();
  }
  record->layer["graph.partition_s"] = partition_s;
  record->layer["graph.edge_cut"] = edge_cut;
  record->layer["graph.parts"] = parts;
}

void RunCity(const Options& options, Record* record) {
  const int shards = static_cast<int>(options.Int("shards"));
  const int threads_per_shard = static_cast<int>(options.Int("threads_per_shard"));
  const int64_t batch = options.Int("batch");
  const int64_t train_batches = options.Int("train_batches");
  const int64_t eval_windows = options.Int("eval_windows");
  const std::string model_name = "DCRNN";
  record->threads = shards * threads_per_shard;
  record->busy_threads = 1;

  std::vector<double> simulate_s, build_s;
  auto state = RepeatSetup<CityState>(
      options.Int("setup_reps"), record, [&] {
        auto s = std::make_unique<CityState>();
        s->dataset = std::make_unique<tb::data::TrafficDataset>(
            Simulate("SYNTH-2K", record, &simulate_s));
        // CreateModel partitions each of DCRNN's supports itself
        // (GraphSupport), so the partitioning cost is part of models.build.
        tb::Stopwatch watch;
        SpanLog::Scope span(&record->spans, "models.build");
        const tb::models::ModelContext context =
            tb::models::MakeModelContext(*s->dataset, options.seed);
        for (int i = 0; i < shards; ++i) {
          s->replicas.push_back(tb::models::CreateModel(model_name, context));
        }
        build_s.push_back(watch.ElapsedSeconds());
        return s;
      });
  record->layer["data.simulate_s"] = Median(simulate_s);
  record->layer["models.build_s"] = Median(build_s);
  if (options.trace) DcrnnPartitionMetrics(*state->dataset, options.seed, record);

  const auto [eval_begin, eval_end] =
      EvalSlice(*state->dataset, eval_windows, options.seed);
  const std::vector<tb::models::TrafficModel*> replicas =
      Pointers(state->replicas);
  int64_t round_seed = 0;

  RunPasses(options, record, [&](bool traced, double seconds) {
    tb::exec::ShardGroup group(tb::exec::ShardOptions{
        .shards = shards, .threads_per_shard = threads_per_shard,
        .parallel = true, .profile = traced});
    std::vector<double> train_s, infer_s;
    int64_t train_windows = 0, infer_windows = 0;
    PassClock clock;
    do {
      tb::eval::TrainConfig config;
      config.epochs = 1;
      config.batch_size = batch;
      config.max_batches_per_epoch = train_batches;
      config.seed = options.seed + static_cast<uint64_t>(round_seed++);
      tb::Stopwatch train_watch;
      tb::eval::TrainResult result;
      {
        SpanLog::Scope span(&record->spans, "eval.shard_train");
        result = tb::eval::TrainModelSharded(replicas, *state->dataset,
                                             config, group);
      }
      train_s.push_back(train_watch.ElapsedSeconds());
      train_windows = result.batches_per_epoch * batch;
      record->attempted += result.batches_per_epoch;
      if (!result.status.ok() || !AllFinite(result.epoch_losses)) {
        ++record->failed;
        record->Fail("sharded training: " + result.status.ToString());
      }

      tb::eval::EvalOptions eval_options;
      eval_options.batch_size = batch;
      tb::Stopwatch infer_watch;
      tb::eval::HorizonReport report;
      {
        SpanLog::Scope span(&record->spans, "eval.shard_eval");
        report = tb::eval::EvaluateModelSharded(
            replicas, *state->dataset, eval_begin, eval_end, group,
            eval_options);
      }
      infer_s.push_back(infer_watch.ElapsedSeconds());
      infer_windows = report.windows;
      ++record->attempted;
      if (!std::isfinite(report.average.mae) || report.windows <= 0) {
        ++record->failed;
        record->Fail("sharded eval MAE is not finite");
      }
    } while (clock.wall() < seconds);

    PassResult result;
    result.wall_s = clock.wall();
    result.cpu_s = clock.cpu();
    const double train_round = BestRound(train_s);
    const double infer_round = BestRound(infer_s);
    result.windows_per_s = train_windows / train_round;
    result.latency_ms = infer_round * 1e3 / infer_windows;
    result.cost_basis =
        (train_round + infer_round) / (train_windows + infer_windows);
    if (traced) {
      record->layer["eval.shard_train_s"] = train_round;
      record->layer["eval.shard_eval_s"] = infer_round;
      record->layer["eval.train_s." + model_name] = train_round;
      record->layer["eval.infer_s." + model_name] = infer_round;
      std::vector<tb::exec::ExecutionContext*> contexts;
      for (int s = 0; s < shards; ++s) contexts.push_back(&group.context(s));
      ReadProfilers(contexts, record);
    }
    return result;
  });

  // Lockstep contract: every replica holds the same parameter bits.
  const auto reference = state->replicas[0]->Parameters();
  for (size_t r = 1; r < state->replicas.size(); ++r) {
    const auto params = state->replicas[r]->Parameters();
    bool same = params.size() == reference.size();
    for (size_t i = 0; same && i < params.size(); ++i) {
      same = SameBits(params[i], reference[i]);
    }
    if (!same) {
      ++record->failed;
      record->Fail("replica " + std::to_string(r) +
                   " diverged from replica 0 after TrainModelSharded");
    }
  }
}

// ---- Serving: shared open-loop machinery ------------------------------------

/// One scheduled request: when it is due (seconds from stream start), which
/// model it asks, and its prebuilt window.
struct Scheduled {
  double due = 0.0;
  const std::string* model = nullptr;
  const tb::Tensor* window = nullptr;
};

/// Per-request outcome of one open-loop stream.
struct Outcome {
  tb::serve::PredictResponse response;
  double late_s = 0.0;       // actual submit - due
  double latency_s = 0.0;    // response ready - due
  double submit_start = 0.0; // SpanLog clock
  double submit_end = 0.0;
};

struct StreamResult {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;   // first due -> last response ready
  double drain_s = 0.0;  // last due -> last response ready
  tb::serve::LatencySummary summary;
  tb::serve::ResponseCacheStats cache;
};

/// Sends `schedule` open-loop into a fresh server (sleeping until each
/// request is due, never waiting for replies), then collects every reply.
/// Latency counts from the due time, so a stalled sender or server shows
/// up in every request it delays.
StreamResult RunStream(const tb::serve::ModelRegistry& registry,
                       const tb::serve::ServerOptions& server_options,
                       const std::string& dataset_name,
                       const std::vector<Scheduled>& schedule,
                       SpanLog* spans) {
  tb::serve::Server server(&registry, server_options);
  server.Start();
  server.recorder().Reset();
  std::vector<std::future<tb::serve::PredictResponse>> futures;
  std::vector<Clock::time_point> submitted;
  std::vector<double> submit_span(2 * schedule.size());
  futures.reserve(schedule.size());
  submitted.reserve(schedule.size());
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(schedule[i].due)));
    const Clock::time_point now = Clock::now();
    submitted.push_back(now);
    tb::serve::PredictRequest request;
    request.model_name = *schedule[i].model;
    request.dataset_name = dataset_name;
    request.window = *schedule[i].window;
    futures.push_back(server.Submit(std::move(request)));
    if (spans->enabled()) {
      submit_span[2 * i] = spans->ToSeconds(now);
      submit_span[2 * i + 1] = spans->Now();
    }
  }
  StreamResult result;
  result.outcomes.resize(schedule.size());
  double last_ready = 0.0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    Outcome& outcome = result.outcomes[i];
    outcome.response = futures[i].get();
    const double sent =
        std::chrono::duration<double>(submitted[i] - t0).count();
    outcome.late_s = sent - schedule[i].due;
    outcome.latency_s = outcome.late_s + outcome.response.total_seconds;
    outcome.submit_start = submit_span[2 * i];
    outcome.submit_end = submit_span[2 * i + 1];
    last_ready = std::max(last_ready, sent + outcome.response.total_seconds);
  }
  server.Stop();
  result.summary = server.recorder().Summary();
  result.cache = server.cache().stats();
  if (!schedule.empty()) {
    result.wall_s = last_ready - schedule.front().due;
    result.drain_s = last_ready - schedule.back().due;
  }
  return result;
}

std::vector<double> LatenciesMs(const StreamResult& stream) {
  std::vector<double> ms;
  for (const Outcome& outcome : stream.outcomes) {
    if (outcome.response.status.ok()) ms.push_back(outcome.latency_s * 1e3);
  }
  return ms;
}

/// Per-request spans of a traced stream: the request (due -> ready), the
/// Submit call, and the queue and compute phases PredictResponse reports.
void AddRequestSpans(const StreamResult& stream, SpanLog* spans,
                     int64_t* next_request) {
  if (!spans->enabled()) return;
  const int64_t parent = spans->Current();
  for (const Outcome& outcome : stream.outcomes) {
    const int64_t request = (*next_request)++;
    const double submit = outcome.submit_start;
    const double due = submit - outcome.late_s;
    const tb::serve::PredictResponse& r = outcome.response;
    const int64_t id = spans->Add("serve.request", due,
                                  submit + r.total_seconds, parent, request);
    spans->Add("serve.submit", submit, outcome.submit_end, id, request);
    if (r.status.ok() && r.tier == 0) {
      spans->Add("serve.queue", submit, submit + r.queue_seconds, id, request);
      const double compute_end = submit + r.total_seconds;
      spans->Add("plan.execute", compute_end - r.compute_seconds, compute_end,
                 id, request);
    }
  }
}

/// The p99 when ten samples lie beyond it, else the highest supported tail.
double TailMs(const std::vector<double>& samples) {
  return perfbench::SupportedPercentile(samples, 99.0)
      .value_or(perfbench::TailPercentile(samples).value);
}

/// Latency-breakdown metrics of one stream.
void ServeLayerMetrics(const StreamResult& stream, const PassResult& pass,
                       Record* record) {
  std::map<std::string, double>& m = record->layer;
  std::vector<double> queue_ms, compute_ms, post_ms;
  int64_t shed = 0;
  for (const Outcome& outcome : stream.outcomes) {
    const tb::serve::PredictResponse& r = outcome.response;
    if (!r.status.ok()) {
      ++shed;
      continue;
    }
    queue_ms.push_back(r.queue_seconds * 1e3);
    compute_ms.push_back(r.compute_seconds * 1e3);
    post_ms.push_back(
        (r.total_seconds - r.queue_seconds - r.compute_seconds) * 1e3);
  }
  const double n = std::max<double>(1.0, static_cast<double>(stream.outcomes.size()));
  m["serve.p50_ms"] = perfbench::Percentile(LatenciesMs(stream), 50.0);
  m["serve.p99_ms"] = TailMs(LatenciesMs(stream));
  m["serve.queue_p50_ms"] = perfbench::Percentile(queue_ms, 50.0);
  m["serve.queue_p99_ms"] = TailMs(queue_ms);
  m["serve.compute_p50_ms"] = perfbench::Percentile(compute_ms, 50.0);
  m["serve.compute_p99_ms"] = TailMs(compute_ms);
  m["serve.post_p50_ms"] = perfbench::Percentile(post_ms, 50.0);
  m["serve.mean_batch"] = stream.summary.mean_batch_size;
  m["serve.mean_queue_depth"] = stream.summary.mean_queue_depth;
  m["serve.tier0_share"] = stream.summary.tier0 / n;
  m["serve.shed_share"] = shed / n;
  m["serve.generator_late_ms"] = pass.sender_late_ms;
}

/// Checks a stream's answers: with admission and the cache off every answer
/// must come from the full model (tier 0), and a sample of them must be
/// bitwise equal to LoadedModel::PredictReference. Runs after the server
/// stopped, so it never competes with the timed stream.
void VerifyAnswers(const tb::serve::ModelRegistry& registry,
                   const std::string& dataset_name,
                   const std::vector<Scheduled>& schedule,
                   const StreamResult& stream, int64_t sample,
                   Record* record) {
  if (stream.cache.hits + stream.cache.misses > 0) {
    ++record->failed;
    record->Fail("the response cache was consulted with the cache off");
  }
  int64_t checked = 0;
  for (size_t i = 0; i < stream.outcomes.size(); ++i) {
    const tb::serve::PredictResponse& r = stream.outcomes[i].response;
    if (!r.status.ok()) continue;
    if (r.tier != 0) {
      ++record->failed;
      record->Fail("tier-" + std::to_string(r.tier) + " answer of " +
                   *schedule[i].model + " with admission off");
      continue;
    }
    if (checked >= sample) continue;
    ++checked;
    const tb::serve::LoadedModelPtr entry =
        registry.Find(*schedule[i].model, dataset_name);
    if (!SameBits(r.prediction, entry->PredictReference(*schedule[i].window))) {
      ++record->failed;
      record->Fail("answer of " + *schedule[i].model +
                   " differs from PredictReference");
    }
  }
}

/// What a serving workload sets up: the dataset, the loaded registry, the
/// served model names and every test window prebuilt as a request input.
struct ServeState {
  std::unique_ptr<tb::data::TrafficDataset> dataset;
  std::unique_ptr<tb::serve::ModelRegistry> registry;
  std::vector<std::string> models;
  std::vector<tb::Tensor> windows;  // [1, T_in, N, 2] test windows
};

/// Registry set-up of the serving workload: loads the models with fp32 plans
/// and compiles and verifies every batch bucket up front, so the timed
/// streams never compile. Records plan.compile_s (first Predict of a bucket
/// minus a steady Predict of the same batch) and plan.active.
std::unique_ptr<ServeState> SetUpServing(
    const Options& options, const std::vector<std::string>& models,
    int64_t max_batch, Record* record, std::vector<double>* simulate_s,
    std::vector<double>* build_s, std::vector<double>* compile_s) {
  auto s = std::make_unique<ServeState>();
  s->dataset = std::make_unique<tb::data::TrafficDataset>(
      Simulate("METR-LA-S", record, simulate_s));
  s->registry = std::make_unique<tb::serve::ModelRegistry>();
  s->models = models;
  const tb::data::DatasetSplits splits = s->dataset->Splits();
  for (int64_t i = splits.test_begin; i < splits.test_end; ++i) {
    s->windows.push_back(s->dataset->MakeBatch({i}).x);
  }

  tb::Stopwatch build_watch;
  {
    SpanLog::Scope span(&record->spans, "models.build");
    for (const std::string& name : models) {
      tb::serve::ModelSpec spec;
      spec.model_name = name;
      spec.dataset_name = "METR-LA-S";
      spec.dataset = s->dataset.get();
      spec.seed = options.seed;
      const tb::Status loaded = s->registry->Load(spec);
      if (!loaded.ok()) throw std::runtime_error(loaded.ToString());
    }
  }
  build_s->push_back(build_watch.ElapsedSeconds());

  double compile = 0.0;
  int64_t active = 0;
  SpanLog::Scope span(&record->spans, "plan.compile");
  for (const std::string& name : models) {
    const tb::serve::LoadedModelPtr entry =
        s->registry->Find(name, "METR-LA-S");
    for (int64_t b = 1; b <= max_batch; b *= 2) {
      std::vector<int64_t> samples;
      for (int64_t j = 0; j < b; ++j) samples.push_back(splits.test_begin + j);
      const tb::Tensor x = s->dataset->MakeBatch(samples).x;
      tb::Stopwatch first;
      entry->Predict(x);
      const double first_s = first.ElapsedSeconds();
      tb::Stopwatch steady;
      entry->Predict(x);
      compile += std::max(0.0, first_s - steady.ElapsedSeconds());
    }
    if (entry->plans_active()) ++active;
  }
  compile_s->push_back(compile);
  record->layer["plan.active"] = static_cast<double>(active);
  return s;
}

/// Traced-run probe of the plan layer: steady batch-`batch` Predict and
/// PredictReference per model under a profiled context, so the tensor
/// metrics of the serving workloads show the forward kernels the workers
/// run (server workers keep their own unprofiled contexts).
void ProbePlans(const ServeState& state, int64_t batch, int64_t reps,
                Record* record) {
  tb::exec::ExecutionContext profiled({.threads = 1, .profile = true});
  tb::exec::ExecutionContext::Bind bind(&profiled);
  const tb::data::DatasetSplits splits = state.dataset->Splits();
  std::vector<int64_t> samples;
  for (int64_t j = 0; j < batch; ++j) samples.push_back(splits.test_begin + j);
  const tb::Tensor x = state.dataset->MakeBatch(samples).x;
  for (const std::string& name : state.models) {
    const tb::serve::LoadedModelPtr entry =
        state.registry->Find(name, "METR-LA-S");
    std::vector<double> plan_ms, eager_ms;
    for (int64_t r = 0; r < reps; ++r) {
      tb::Stopwatch plan_watch;
      {
        SpanLog::Scope span(&record->spans, "plan.predict." + name);
        entry->Predict(x);
      }
      plan_ms.push_back(plan_watch.ElapsedMillis() / batch);
      tb::Stopwatch eager_watch;
      {
        SpanLog::Scope span(&record->spans, "models.forward." + name);
        entry->PredictReference(x);
      }
      eager_ms.push_back(eager_watch.ElapsedMillis() / batch);
    }
    record->layer["plan.ms_per_window." + name] = Median(plan_ms);
    record->layer["plan.eager_ms_per_window." + name] = Median(eager_ms);
  }
  ReadProfilers({&profiled}, record);
}

/// One timed open-loop stream of a pass: counts attempts and failures,
/// checks the answers, and fills the pass's clocks, sender lateness and
/// overhead basis (the median latency from the due times).
StreamResult TimedStream(const ServeState& state,
                         const tb::serve::ServerOptions& server_options,
                         const std::vector<Scheduled>& schedule, bool traced,
                         int64_t verify_sample, Record* record,
                         int64_t* next_request, PassResult* result) {
  PassClock clock;
  StreamResult stream = RunStream(*state.registry, server_options,
                                  "METR-LA-S", schedule, &record->spans);
  result->wall_s = clock.wall();
  result->cpu_s = clock.cpu();
  AddRequestSpans(stream, &record->spans, next_request);
  record->attempted += static_cast<int64_t>(schedule.size());
  std::vector<double> late_ms;
  for (const Outcome& outcome : stream.outcomes) {
    late_ms.push_back(outcome.late_s * 1e3);
    if (!outcome.response.status.ok()) ++record->failed;
  }
  result->sender_late_ms = TailMs(late_ms);
  VerifyAnswers(*state.registry, "METR-LA-S", schedule, stream, verify_sample,
                record);
  result->cost_basis = perfbench::Percentile(LatenciesMs(stream), 50.0);
  if (traced) ServeLayerMetrics(stream, *result, record);
  return stream;
}

// ---- serve-replay: 8 models, distinct windows, fixed rates ------------------

void RunServeReplay(const Options& options, Record* record) {
  const int64_t max_batch = options.Int("batch_max");
  tb::serve::ServerOptions server_options;
  server_options.workers = static_cast<int>(options.Int("workers"));
  server_options.threads_per_worker = 1;
  server_options.batch.max_batch_size = max_batch;
  server_options.batch.max_queue_delay_ms = options.Num("max_delay_ms");
  server_options.queue_capacity = options.Int("queue_capacity");
  server_options.use_plan = true;
  const double base_rate = options.Num("base_rate");
  const std::vector<double> ladder = options.List("ladder");
  const double ladder_seconds = options.Num("ladder_step_seconds");
  const double limit_ms = options.Num("latency_limit_ms");
  const int64_t saturation_requests = options.Int("saturation_requests");
  const int64_t saturation_bursts = options.Int("saturation_bursts");
  record->threads = server_options.workers;

  std::vector<double> simulate_s, build_s, compile_s;
  auto state = RepeatSetup<ServeState>(
      options.Int("setup_reps"), record, [&] {
        return SetUpServing(options, tb::models::PaperModelNames(), max_batch,
                            record, &simulate_s, &build_s, &compile_s);
      });
  record->layer["data.simulate_s"] = Median(simulate_s);
  record->layer["models.build_s"] = Median(build_s);
  record->layer["plan.compile_s"] = Median(compile_s);
  if (record->layer["plan.active"] != static_cast<double>(state->models.size())) {
    ++record->failed;
    record->Fail("plans_active() is false for some serve-replay model");
  }
  if (options.trace) ProbePlans(*state, max_batch, 5, record);

  // Every request asks a distinct (model, window) pair: windows are dealt
  // round-robin over the models from one seeded shuffle of the test split.
  std::mt19937_64 rng(options.seed);
  std::vector<size_t> order(state->windows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  size_t next = 0;
  auto make_schedule = [&](double rate, double seconds, bool all_at_once) {
    std::exponential_distribution<double> gap(rate);
    std::vector<Scheduled> schedule;
    const int64_t count = all_at_once
                              ? saturation_requests
                              : static_cast<int64_t>(std::llround(rate * seconds));
    double t = 0.0;
    for (int64_t i = 0; i < count; ++i, ++next) {
      if (!all_at_once) t += gap(rng);
      const size_t model = next % state->models.size();
      const size_t window =
          order[(next / state->models.size()) % order.size()];
      schedule.push_back({t, &state->models[model], &state->windows[window]});
    }
    return schedule;
  };
  int64_t next_request = 0;

  RunPasses(options, record, [&](bool traced, double seconds) {
    PassResult result;
    const std::vector<Scheduled> base = make_schedule(base_rate, seconds, false);
    // Two checked answers per model (requests are dealt round-robin).
    const StreamResult stream = TimedStream(
        *state, server_options, base, traced,
        2 * static_cast<int64_t>(state->models.size()), record, &next_request,
        &result);
    // Deployment latency at a fixed load: the mean over the models of each
    // model's median. A median over the whole mix would jump between the
    // models' very different service times; the tail is serve.p99_ms.
    std::map<const std::string*, std::vector<double>> per_model;
    for (size_t i = 0; i < base.size(); ++i) {
      if (stream.outcomes[i].response.status.ok()) {
        per_model[base[i].model].push_back(stream.outcomes[i].latency_s * 1e3);
      }
    }
    for (const auto& [model, latencies] : per_model) {
      result.latency_ms += Median(latencies) / per_model.size();
    }
    if (traced) return result;
    // Capacity: bursts of distinct requests submitted at once; each burst's
    // rate is the answers completed per second between its 10% and 90%
    // marks (leaving out the ramp-up and the last stragglers), and the best
    // burst counts, as for the batch workloads' rounds.
    for (int64_t b = 0; b < saturation_bursts; ++b) {
      const std::vector<Scheduled> burst = make_schedule(1.0, 0.0, true);
      const StreamResult flood = RunStream(*state->registry, server_options,
                                           "METR-LA-S", burst, &record->spans);
      record->attempted += static_cast<int64_t>(burst.size());
      std::vector<double> ready;
      for (size_t i = 0; i < flood.outcomes.size(); ++i) {
        if (!flood.outcomes[i].response.status.ok()) {
          ++record->failed;
          continue;
        }
        ready.push_back(burst[i].due + flood.outcomes[i].latency_s);
      }
      std::sort(ready.begin(), ready.end());
      if (ready.size() < 10) continue;
      const size_t lo = ready.size() / 10, hi = ready.size() - 1 - lo;
      result.windows_per_s = std::max(
          result.windows_per_s,
          static_cast<double>(hi - lo) / std::max(1e-9, ready[hi] - ready[lo]));
    }
    // The rate ladder feeds only the per-layer serve.max_rate, so it runs
    // in traced runs alone.
    if (options.trace) {
      const perfbench::LadderResult search = perfbench::SearchRateLadder(
          ladder, limit_ms, [&](double rate) {
            const std::vector<Scheduled> step =
                make_schedule(rate, ladder_seconds, false);
            const StreamResult s = RunStream(*state->registry, server_options,
                                             "METR-LA-S", step,
                                             &record->spans);
            const std::vector<double> latencies = LatenciesMs(s);
            const perfbench::Tail tail = perfbench::TailPercentile(latencies);
            perfbench::LadderStep out;
            out.tail_ms = tail.value;
            out.tail_q = tail.q;
            out.drain_ms = s.drain_s * 1e3;
            out.failed = static_cast<int64_t>(s.outcomes.size() -
                                              latencies.size());
            std::fprintf(stderr,
                         "perfbench: ladder %.0f/s p%.0f %.2f ms drain %.2f ms\n",
                         rate, tail.q, tail.value, out.drain_ms);
            return out;
          });
      record->layer["serve.max_rate"] = search.max_rate;
    }
    return result;
  });
}

// ---- Output -----------------------------------------------------------------

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += JsonString(key) + ": " + JsonNumber(value);
  }
  return out + "}";
}

void WriteRecord(const Options& options, const Record& record,
                 double wall_s, double cpu_s) {
  std::ofstream out(options.out);
  out << "{\n";
  out << "\"workload\": " << JsonString(options.workload) << ",\n";
  out << "\"seed\": " << options.seed << ",\n";
  out << "\"trace\": " << (options.trace ? 1 : 0) << ",\n";
  out << "\"correct\": " << (record.failed == 0 ? "true" : "false") << ",\n";
  out << "\"attempted\": " << record.attempted << ",\n";
  out << "\"failed\": " << record.failed << ",\n";
  out << "\"failures\": [";
  for (size_t i = 0; i < record.failures.size(); ++i) {
    out << (i ? ", " : "") << JsonString(record.failures[i]);
  }
  out << "],\n";
  out << "\"end_to_end\": " << JsonObject(record.e2e) << ",\n";
  out << "\"per_layer\": " << JsonObject(record.layer) << ",\n";
  out << "\"timing\": "
      << JsonObject({{"wall_s", wall_s},
                     {"cpu_s", cpu_s},
                     {"timed_wall_s", record.untraced.wall_s},
                     {"timed_cpu_s", record.untraced.cpu_s},
                     {"threads", static_cast<double>(record.threads)},
                     {"busy_threads", static_cast<double>(record.busy_threads)},
                     {"sender_late_p99_ms", record.untraced.sender_late_ms}})
      << ",\n";
  out << "\"self_s\": " << JsonObject(perfbench::SelfTimes(record.spans.spans()))
      << ",\n";
  out << "\"spans\": [";
  const std::vector<perfbench::Span>& spans = record.spans.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "[" << JsonString(s.name) << ", "
        << JsonNumber(s.start) << ", " << JsonNumber(s.end) << ", " << s.parent
        << ", " << s.request << "]";
  }
  out << "]\n}\n";
  if (!out) throw std::runtime_error("cannot write " + options.out);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = ParseOptions(argc, argv);
    PassClock process;
    Record record(options);
    DeclareLayerMetrics(&record);
    if (options.workload == "table3") {
      RunTable3(options, &record);
    } else if (options.workload == "city-2k") {
      RunCity(options, &record);
    } else if (options.workload == "serve-replay") {
      RunServeReplay(options, &record);
    } else {
      throw std::runtime_error("unknown workload " + options.workload);
    }
    record.e2e["setup_s"] = Median(record.setup_times);
    record.e2e["peak_rss_mb"] = PeakRssMib();
    WriteRecord(options, record, process.wall(), process.cpu());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
