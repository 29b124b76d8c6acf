// perfbench driver: runs one named workload through the library's public
// API, checks that its outputs are correct, and prints one JSON line of
// metrics. Inputs arrive as CSV files written by run.py from the workload
// seed; the driver never generates data itself.
//
//   perfbench_driver --workload <name> --train <csv> --test <csv>
//                    --seconds <s> --trace <0|1> --work-dir <dir>
//                    [--trace-out <jsonl>] [--tiny]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md for which end-to-end metric each per-layer one moves).
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the JSON line is still printed, with "correct": false), 2 on a usage
// or input error (nothing is printed on stdout).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bo/smac.h"
#include "core/volcano_ml.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/session.h"
#include "data/csv.h"
#include "data/splits.h"
#include "fe/registry.h"
#include "ipc/messages.h"
#include "ml/algorithms.h"
#include "ml/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "trace.h"

namespace perfbench {
namespace {

using volcanoml::Assignment;
using volcanoml::Dataset;
using volcanoml::EvalContext;
using volcanoml::EvalOutcome;
using volcanoml::Result;
using volcanoml::SessionConfig;
using volcanoml::Status;
using volcanoml::Stopwatch;
using volcanoml::TaskType;
using volcanoml::TrajectoryPoint;
using volcanoml::TrialOutcome;
using volcanoml::VolcanoML;
using volcanoml::VolcanoMlOptions;

// ---------------------------------------------------------------------------
// Small utilities

struct Args {
  std::string workload;
  std::string train_path;
  std::string test_path;
  std::string work_dir;
  std::string trace_out;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

/// Ordered name -> (value, unit) list, printed as the result's "metrics".
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(e.value) ? e.value : 0.0);
      out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Collects correctness failures; any failure makes the run incorrect.
class Verdict {
 public:
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

double Median(std::vector<double> v) {
  return v.empty() ? 0.0 : volcanoml::Median(std::move(v));
}

double Quantile(std::vector<double> v, double q) {
  return v.empty() ? 0.0 : volcanoml::Quantile(std::move(v), q);
}

/// Emits `<prefix>_p50` and `<prefix>_p90`, plus the sample count as
/// `<count_name>` so every percentile states how many samples it has.
void AddPercentiles(Metrics* m, const std::string& prefix,
                    const std::vector<double>& samples,
                    const std::string& count_name, bool with_p90 = true) {
  m->Add(prefix + "_p50", Quantile(samples, 0.5), "ms");
  if (with_p90) m->Add(prefix + "_p90", Quantile(samples, 0.9), "ms");
  m->Add(count_name, static_cast<double>(samples.size()), "count");
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ULL;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Identity of a finished search: every trajectory point, the incumbent
/// assignment and the evaluation count.
uint64_t Fingerprint(const std::vector<TrajectoryPoint>& trajectory,
                     const Assignment& best, uint64_t evaluations) {
  uint64_t h = 1469598103934665603ULL;
  for (const TrajectoryPoint& p : trajectory) {
    h = Mix(Mix(h, Bits(p.budget)), Bits(p.utility));
  }
  for (const auto& [name, value] : best) {
    for (char c : name) h = Mix(h, static_cast<uint64_t>(c));
    h = Mix(h, Bits(value));
  }
  return Mix(h, evaluations);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

Assignment Strip(const Assignment& a, const std::string& prefix) {
  Assignment local;
  for (const auto& [name, value] : a) {
    if (name.rfind(prefix, 0) == 0) local[name.substr(prefix.size())] = value;
  }
  return local;
}

double TestBalancedAccuracy(const volcanoml::FittedPipeline& pipeline,
                            const Dataset& test, size_t num_classes) {
  std::vector<double> pred = pipeline.Predict(test.x());
  return volcanoml::BalancedAccuracy(test.y(), pred, num_classes);
}

// ---------------------------------------------------------------------------
// Search runs

/// What a search workload runs. Budgets are evaluation units, so every
/// repetition does the same work.
struct SearchSpec {
  std::string plan;
  double budget = 0.0;
  uint64_t batch_size = 1;
  size_t threads = 1;
};

SessionConfig SearchConfig(const SearchSpec& spec) {
  SessionConfig config;
  config.preset = 1;  // medium
  config.plan = spec.plan;
  config.optimizer = "smac";
  config.budget = spec.budget;
  config.batch_size = spec.batch_size;
  config.seed = 1;
  return config;
}

/// One finished search: its setup and search timings, its identity, and
/// the instance itself for post-hoc replay.
struct SearchRep {
  std::unique_ptr<VolcanoML> automl;
  double parse_s = 0.0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// What the caller of each PlanExecutor::Step waited.
  std::vector<double> step_ms;
  size_t evaluations = 0;
  uint64_t fingerprint = 0;
  double best_utility = 0.0;
  double rate() const { return evaluations / wall_s; }
};

/// Parses the CSV and prepares a search: the setup a user waits through
/// before the first trial.
Result<std::unique_ptr<VolcanoML>> PrepareSearch(const VolcanoMlOptions& options,
                                                 const std::string& csv,
                                                 Tracer* tracer,
                                                 double* parse_s) {
  Stopwatch parse_clock;
  Result<Dataset> data = [&] {
    ScopedSpan span(tracer, "data.csv_parse");
    return volcanoml::ParseCsvDataset(csv, TaskType::kClassification, "train",
                                      "perfbench train csv");
  }();
  if (parse_s != nullptr) *parse_s = parse_clock.ElapsedSeconds();
  if (!data.ok()) return data.status();
  auto automl = std::make_unique<VolcanoML>(options);
  ScopedSpan span(tracer, "core.prepare");
  Status prepared = automl->Prepare(data.value());
  if (!prepared.ok()) return prepared;
  return automl;
}

Result<SearchRep> RunSearch(const VolcanoMlOptions& options,
                            const std::string& csv, Tracer* tracer) {
  SearchRep rep;
  ScopedSpan rep_span(tracer, "search.rep");
  Stopwatch setup_clock;
  Result<std::unique_ptr<VolcanoML>> prepared = [&] {
    ScopedSpan span(tracer, "setup");
    return PrepareSearch(options, csv, tracer, &rep.parse_s);
  }();
  rep.setup_s = setup_clock.ElapsedSeconds();
  if (!prepared.ok()) return prepared.status();
  rep.automl = std::move(prepared.value());
  volcanoml::PlanExecutor* executor = rep.automl->executor();
  Stopwatch search_clock;
  {
    ScopedSpan search_span(tracer, "search");
    for (int64_t step = 0;; ++step) {
      Stopwatch step_clock;
      ScopedSpan step_span(tracer, "core.step", step);
      if (!executor->Step()) break;
      rep.step_ms.push_back(step_clock.ElapsedSeconds() * 1e3);
    }
  }
  rep.wall_s = search_clock.ElapsedSeconds();
  volcanoml::AutoMlResult result = rep.automl->Finish();
  rep.evaluations = result.num_evaluations;
  rep.best_utility = result.best_utility;
  rep.fingerprint = Fingerprint(result.trajectory, result.best_assignment,
                                result.num_evaluations);
  return rep;
}

/// A committed trial, as the evaluator's observation log holds it.
struct Trial {
  Assignment assignment;
  double utility = 0.0;
};

/// The distinct configurations a search committed, in first-commit order
/// (memo hits reuse an earlier result and cost no training).
std::vector<Trial> DistinctTrials(const volcanoml::PipelineEvaluator& ev) {
  std::vector<Trial> out;
  std::set<std::string> seen;
  for (const auto& [assignment, utility] : ev.observations()) {
    if (seen.insert(ev.context().CacheKey(assignment, 1.0)).second) {
      out.push_back({assignment, utility});
    }
  }
  return out;
}

/// Replays every `stride`-th distinct trial through
/// EvalContext::EvaluateOnce and checks that each utility equals the
/// committed one bit for bit. Appends one duration per trial to
/// `trial_ms`.
void ReplayTrials(const EvalContext& context, const std::vector<Trial>& trials,
                  size_t stride, Tracer* tracer, Verdict* verdict,
                  std::vector<double>* trial_ms) {
  for (size_t i = 0; i < trials.size(); i += stride) {
    Stopwatch clock;
    EvalOutcome outcome = [&] {
      ScopedSpan span(tracer, "eval.trial", static_cast<int64_t>(i));
      return context.EvaluateOnce(trials[i].assignment, 1.0);
    }();
    trial_ms->push_back(clock.ElapsedSeconds() * 1e3);
    verdict->Check(Bits(outcome.utility) == Bits(trials[i].utility),
                   "replayed EvaluateOnce utility differs from the committed "
                   "observation of trial " + std::to_string(i));
  }
}

/// Time spent in the feature-engineering and model layers of one trial.
struct LayerTimes {
  std::vector<double> fe_fit_transform_ms;
  std::vector<double> ml_fit_ms;
  std::vector<double> ml_predict_ms;
  double fe_total_ms = 0.0;
  double ml_total_ms = 0.0;
};

/// Re-runs one holdout trial layer by layer, the way EvaluateOnce does,
/// with operators and models built by the public registry factories.
/// Returns the utility so the caller can check it against the committed
/// one: equality proves the decomposition does the same work.
double DecomposedTrial(const EvalContext& context,
                       const volcanoml::Split& split, const Assignment& a,
                       int64_t trial, Tracer* tracer, LayerTimes* times) {
  ScopedSpan trial_span(tracer, "eval.decomposed", trial);
  const volcanoml::SearchSpace& space = context.space();
  const volcanoml::ConfigurationSpace& joint = space.joint();
  const volcanoml::EvaluatorOptions& options = context.options();
  const double failure = volcanoml::FailureUtility(space.task());
  volcanoml::Configuration config = joint.FromAssignment(a);

  volcanoml::FePipeline fe;
  volcanoml::Rng fe_rng(EvalContext::FeRequestHash(a) ^ options.seed);
  for (volcanoml::FeStage stage : space.stages()) {
    std::string stage_param = std::string("fe:") + volcanoml::FeStageName(stage);
    const std::string& op_name = joint.GetChoiceName(config, stage_param);
    volcanoml::FeOperatorInfo op = volcanoml::FindFeOperator(op_name);
    volcanoml::Configuration op_config = op.hp_space.FromAssignment(
        Strip(a, stage_param + ":" + op_name + ":"));
    std::unique_ptr<volcanoml::FeOperator> fe_op =
        op.create(op.hp_space, op_config, fe_rng.Fork());
    fe_op->SetPrecision(options.precision);
    fe.Add(std::move(fe_op));
  }
  const std::string& algorithm = joint.GetChoiceName(config, "algorithm");
  const volcanoml::Algorithm& algo =
      volcanoml::FindAlgorithm(algorithm, space.task());
  volcanoml::Rng model_rng(EvalContext::RequestHash(a) ^ options.seed);
  std::unique_ptr<volcanoml::Model> model = algo.create(
      algo.hp_space, algo.hp_space.FromAssignment(Strip(a, "alg:" + algorithm + ":")),
      model_rng.Fork());
  model->SetPrecision(options.precision);

  const Dataset& data = context.data();
  Stopwatch clock;
  double t0 = clock.ElapsedSeconds();
  Result<Dataset> engineered = [&] {
    ScopedSpan span(tracer, "fe.fit_transform", trial);
    return fe.FitTransform(data.Subset(split.train));
  }();
  double t1 = clock.ElapsedSeconds();
  times->fe_fit_transform_ms.push_back((t1 - t0) * 1e3);
  times->fe_total_ms += (t1 - t0) * 1e3;
  if (!engineered.ok()) return failure;
  double t2 = clock.ElapsedSeconds();
  Dataset valid = data.Subset(split.test);
  {
    ScopedSpan span(tracer, "fe.transform", trial);
    valid.ReplaceFeatures(fe.Transform(std::move(valid.mutable_x())));
  }
  double t3 = clock.ElapsedSeconds();
  times->fe_total_ms += (t3 - t2) * 1e3;
  Status fitted = [&] {
    ScopedSpan span(tracer, "ml.fit", trial);
    return model->Fit(engineered.value());
  }();
  double t4 = clock.ElapsedSeconds();
  times->ml_fit_ms.push_back((t4 - t3) * 1e3);
  if (!fitted.ok()) {
    times->ml_total_ms += (t4 - t3) * 1e3;
    return failure;
  }
  std::vector<double> pred = [&] {
    ScopedSpan span(tracer, "ml.predict", trial);
    return model->Predict(valid.x());
  }();
  double t5 = clock.ElapsedSeconds();
  times->ml_predict_ms.push_back((t5 - t4) * 1e3);
  times->ml_total_ms += (t5 - t3) * 1e3;
  double utility = volcanoml::Utility(valid, pred);
  return std::isfinite(utility) ? utility : failure;
}

struct BoTimes {
  std::vector<double> suggest_ms;
  std::vector<double> observe_ms;
  std::vector<double> suggest_batch_ms;
};

/// Replays committed histories through fresh SMAC optimizers over the
/// joint space: Suggest/Observe on one, SuggestBatch(4) every fourth
/// observation on another. Repeats whole passes until the samples
/// support the reported percentiles.
void ReplayBo(const volcanoml::SearchSpace& space,
              const std::vector<std::vector<Trial>>& histories, Tracer* tracer,
              bool tiny, BoTimes* times) {
  const volcanoml::ConfigurationSpace& joint = space.joint();
  const size_t min_suggest = tiny ? 1 : 100;
  const size_t min_batch = tiny ? 1 : 40;
  for (uint64_t pass = 0; pass < 16; ++pass) {
    for (const std::vector<Trial>& history : histories) {
      volcanoml::SmacOptimizer single(&joint, volcanoml::SmacOptimizer::Options{},
                                      2 * pass + 1);
      volcanoml::SmacOptimizer batched(&joint, volcanoml::SmacOptimizer::Options{},
                                       2 * pass + 2);
      for (size_t i = 0; i < history.size(); ++i) {
        volcanoml::Configuration observed =
            joint.FromAssignment(history[i].assignment);
        Stopwatch clock;
        {
          ScopedSpan span(tracer, "bo.suggest", static_cast<int64_t>(i));
          volcanoml::Configuration proposal = single.Suggest();
          (void)proposal;
        }
        double t1 = clock.ElapsedSeconds();
        {
          ScopedSpan span(tracer, "bo.observe", static_cast<int64_t>(i));
          single.Observe(observed, history[i].utility);
        }
        double t2 = clock.ElapsedSeconds();
        times->suggest_ms.push_back(t1 * 1e3);
        times->observe_ms.push_back((t2 - t1) * 1e3);
        if (i % 4 == 3) {
          Stopwatch batch_clock;
          ScopedSpan span(tracer, "bo.suggest_batch", static_cast<int64_t>(i));
          std::vector<volcanoml::Configuration> batch = batched.SuggestBatch(4);
          (void)batch;
          times->suggest_batch_ms.push_back(batch_clock.ElapsedSeconds() * 1e3);
        }
        batched.Observe(observed, history[i].utility);
      }
    }
    if (times->suggest_ms.size() >= min_suggest &&
        times->suggest_batch_ms.size() >= min_batch) {
      break;
    }
  }
}

/// Times SaveSnapshot on a finished executor and LoadSnapshot into a
/// freshly prepared twin.
struct SnapshotTimes {
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  double kb = 0.0;
};

void TimeSnapshots(const VolcanoML& finished, const VolcanoMlOptions& options,
                   const std::string& csv, Tracer* tracer, Verdict* verdict,
                   int repeats, SnapshotTimes* times) {
  std::string snapshot;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch clock;
    ScopedSpan span(tracer, "core.snapshot_save");
    snapshot = finished.executor()->SaveSnapshot();
    times->save_ms.push_back(clock.ElapsedSeconds() * 1e3);
  }
  times->kb = snapshot.size() / 1024.0;
  for (int r = 0; r < repeats; ++r) {
    Result<std::unique_ptr<VolcanoML>> fresh =
        PrepareSearch(options, csv, tracer, nullptr);
    if (!fresh.ok()) {
      verdict->Check(false, "prepare for snapshot load: " +
                                fresh.status().ToString());
      return;
    }
    Stopwatch clock;
    Status loaded = [&] {
      ScopedSpan span(tracer, "core.snapshot_load");
      return fresh.value()->executor()->LoadSnapshot(snapshot);
    }();
    times->load_ms.push_back(clock.ElapsedSeconds() * 1e3);
    verdict->Check(loaded.ok(), "LoadSnapshot: " + loaded.ToString());
    verdict->Check(fresh.value()->executor()->SaveSnapshot() == snapshot,
                   "snapshot does not round-trip byte for byte");
  }
}

/// Times the wire codec on the workload's CreateSessionRequest and the
/// QuerySessionReply that would carry its result.
struct IpcTimes {
  double encode_us = 0.0;
  double decode_us = 0.0;
  double frame_kb = 0.0;
};

template <typename Message>
void TimeCodec(const Message& message, Tracer* tracer, Verdict* verdict,
               const std::string& what, IpcTimes* times) {
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::string payload;
  for (int r = 0; r < 64; ++r) {
    Stopwatch clock;
    {
      ScopedSpan span(tracer, "ipc.encode");
      payload = volcanoml::EncodeMessage(message);
    }
    encode_us.push_back(clock.ElapsedSeconds() * 1e6);
    Stopwatch decode_clock;
    Result<Message> decoded = [&] {
      ScopedSpan span(tracer, "ipc.decode");
      return volcanoml::DecodeMessage<Message>(payload);
    }();
    decode_us.push_back(decode_clock.ElapsedSeconds() * 1e6);
    if (r == 0) {
      verdict->Check(decoded.ok() && volcanoml::EncodeMessage(decoded.value()) ==
                                         payload,
                     what + " does not round-trip through the wire codec");
    }
  }
  times->encode_us += Median(encode_us);
  times->decode_us += Median(decode_us);
  times->frame_kb += payload.size() / 1024.0;
}

IpcTimes TimeIpc(const volcanoml::CreateSessionRequest& create,
                 const volcanoml::QuerySessionReply& reply, Tracer* tracer,
                 Verdict* verdict) {
  IpcTimes times;
  TimeCodec(create, tracer, verdict, "CreateSessionRequest", &times);
  TimeCodec(reply, tracer, verdict, "QuerySessionReply", &times);
  return times;
}

/// Failed trials of one finished search (outcome other than kOk).
size_t FailedTrials(const VolcanoML& automl) {
  const volcanoml::EvalEngine& engine = automl.evaluator()->engine();
  size_t failed = 0;
  for (size_t o = 0; o < volcanoml::kNumTrialOutcomes; ++o) {
    if (static_cast<TrialOutcome>(o) == TrialOutcome::kOk) continue;
    failed += engine.outcome_count(static_cast<TrialOutcome>(o));
  }
  return failed;
}

/// Per-layer numbers gathered from replays of finished searches: the
/// shared part of the traced run of every workload.
struct LayerReport {
  std::vector<double> step_ms;
  std::vector<double> trial_ms;
  double replay_ms = 0.0;  ///< One pass over the distinct trials.
  LayerTimes layers;
  BoTimes bo;
  SnapshotTimes snapshot;
  IpcTimes ipc;
  size_t evaluations = 0;
  size_t cache_hits = 0;
  size_t ok_trials = 0;
};

/// Replays the distinct trials of `searches` (checking each utility) and,
/// when tracing, decomposes them into FE and model layers. Repeats whole
/// passes until the trial samples support the reported percentiles.
void ReplaySearches(const std::vector<const VolcanoML*>& searches,
                    Tracer* tracer, bool tiny, Verdict* verdict,
                    LayerReport* report) {
  std::vector<std::vector<Trial>> distinct;
  size_t total = 0;
  for (const VolcanoML* s : searches) {
    const volcanoml::PipelineEvaluator& ev = *s->evaluator();
    verdict->Check(ev.observations().size() == ev.num_evaluations(),
                   "every trial must be a full-fidelity observation");
    distinct.push_back(DistinctTrials(ev));
    total += distinct.back().size();
    report->evaluations += ev.num_evaluations();
    report->cache_hits += ev.engine().cache_hits();
    report->ok_trials += ev.num_evaluations() - FailedTrials(*s);
  }
  const size_t min_samples = tiny ? 1 : 100;
  const size_t passes =
      tracer->enabled() ? std::max<size_t>(1, (min_samples + total - 1) /
                                                  std::max<size_t>(total, 1))
                        : 1;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t s = 0; s < searches.size(); ++s) {
      const EvalContext& context = searches[s]->evaluator()->context();
      size_t before = report->trial_ms.size();
      // The untraced run checks a quarter of the trials to save time; the
      // traced run replays all of them, since it sums their cost.
      ReplayTrials(context, distinct[s], tracer->enabled() ? 1 : 4, tracer,
                   verdict, &report->trial_ms);
      if (pass == 0) {
        for (size_t i = before; i < report->trial_ms.size(); ++i) {
          report->replay_ms += report->trial_ms[i];
        }
      }
      if (!tracer->enabled()) continue;
      volcanoml::Rng split_rng(context.options().seed);
      volcanoml::Split split = volcanoml::TrainTestSplit(
          context.data(), context.options().validation_fraction, &split_rng);
      LayerTimes pass_times;
      for (size_t i = 0; i < distinct[s].size(); ++i) {
        double utility =
            DecomposedTrial(context, split, distinct[s][i].assignment,
                            static_cast<int64_t>(i), tracer, &pass_times);
        verdict->Check(Bits(utility) == Bits(distinct[s][i].utility),
                       "layer-by-layer replay differs from the committed "
                       "utility of trial " + std::to_string(i));
      }
      LayerTimes& all = report->layers;
      for (double v : pass_times.fe_fit_transform_ms)
        all.fe_fit_transform_ms.push_back(v);
      for (double v : pass_times.ml_fit_ms) all.ml_fit_ms.push_back(v);
      for (double v : pass_times.ml_predict_ms) all.ml_predict_ms.push_back(v);
      if (pass == 0) {
        all.fe_total_ms += pass_times.fe_total_ms;
        all.ml_total_ms += pass_times.ml_total_ms;
      }
    }
  }
  if (tracer->enabled()) {
    std::vector<std::vector<Trial>> histories;
    for (const VolcanoML* s : searches) {
      std::vector<Trial> history;
      for (const auto& [a, u] : s->evaluator()->observations()) {
        history.push_back({a, u});
      }
      histories.push_back(std::move(history));
    }
    ReplayBo(searches.front()->space(), histories, tracer, tiny, &report->bo);
  }
}

/// Adds every per-layer metric. `busy_wall_s` is the search wall time the
/// replayed trials are set against; `threads` the evaluation workers.
void AddLayerMetrics(Metrics* m, const LayerReport& r, double busy_wall_s,
                     size_t threads, double snapshot_frac, double csv_parse_ms,
                     double refit_ms, double overhead_frac, size_t spans) {
  const double wall_ms = busy_wall_s * 1e3;
  const double capacity_ms = wall_ms * static_cast<double>(threads);
  AddPercentiles(m, "core.step_ms", r.step_ms, "core.steps");
  m->Add("core.search_overhead_frac",
         capacity_ms > 0 ? 1.0 - r.replay_ms / capacity_ms : 0.0, "frac");
  m->Add("core.snapshot_save_ms", Median(r.snapshot.save_ms), "ms");
  m->Add("core.snapshot_load_ms", Median(r.snapshot.load_ms), "ms");
  m->Add("core.snapshot_kb", r.snapshot.kb, "KiB");
  m->Add("core.snapshot_frac", snapshot_frac, "frac");
  AddPercentiles(m, "bo.suggest_ms", r.bo.suggest_ms, "bo.suggests");
  m->Add("bo.observe_ms_mean", volcanoml::Mean(r.bo.observe_ms), "ms");
  AddPercentiles(m, "bo.suggest_batch_ms", r.bo.suggest_batch_ms,
                 "bo.suggest_batches", /*with_p90=*/false);
  AddPercentiles(m, "eval.trial_ms", r.trial_ms, "eval.trials");
  m->Add("eval.busy_frac", wall_ms > 0 ? r.replay_ms / wall_ms : 0.0, "frac");
  m->Add("eval.parallel_eff", capacity_ms > 0 ? r.replay_ms / capacity_ms : 0.0,
         "frac");
  m->Add("eval.memo_hit_frac",
         r.evaluations > 0 ? double(r.cache_hits) / r.evaluations : 0.0, "frac");
  m->Add("eval.ok_frac",
         r.evaluations > 0 ? double(r.ok_trials) / r.evaluations : 0.0, "frac");
  AddPercentiles(m, "fe.fit_transform_ms", r.layers.fe_fit_transform_ms,
                 "fe.fit_transforms");
  m->Add("fe.busy_frac", wall_ms > 0 ? r.layers.fe_total_ms / wall_ms : 0.0,
         "frac");
  AddPercentiles(m, "ml.fit_ms", r.layers.ml_fit_ms, "ml.fits");
  m->Add("ml.predict_ms_p50", Quantile(r.layers.ml_predict_ms, 0.5), "ms");
  m->Add("ml.busy_frac", wall_ms > 0 ? r.layers.ml_total_ms / wall_ms : 0.0,
         "frac");
  m->Add("ml.refit_ms", refit_ms, "ms");
  m->Add("data.csv_parse_ms", csv_parse_ms, "ms");
  m->Add("ipc.encode_us", r.ipc.encode_us, "us");
  m->Add("ipc.decode_us", r.ipc.decode_us, "us");
  m->Add("ipc.frame_kb", r.ipc.frame_kb, "KiB");
  m->Add("trace.overhead_frac", overhead_frac, "frac");
  m->Add("trace.spans", static_cast<double>(spans), "count");
}

void AddDaemonLayerMetrics(Metrics* m, const std::vector<double>& create_ms,
                           const std::vector<double>& query_ms,
                           const std::vector<double>& evict_ms, double turns) {
  AddPercentiles(m, "daemon.create_ms", create_ms, "daemon.creates");
  AddPercentiles(m, "daemon.query_ms", query_ms, "daemon.queries");
  AddPercentiles(m, "daemon.evict_ms", evict_ms, "daemon.evicts",
                 /*with_p90=*/false);
  m->Add("daemon.turns", turns, "count");
}

/// Evaluations and wall seconds summed over repetitions: the throughput
/// of all the time measured, not of one repetition.
struct Throughput {
  size_t reps = 0;
  double evaluations = 0.0;
  double seconds = 0.0;
  std::vector<double> rates;  ///< Per repetition, for the log.
  void Add(double evals, double wall_s) {
    ++reps;
    evaluations += evals;
    seconds += wall_s;
    rates.push_back(evals / wall_s);
  }
  double rate() const { return seconds > 0.0 ? evaluations / seconds : 0.0; }
  double mean_wall_s() const { return reps > 0 ? seconds / reps : 0.0; }
  std::string Log() const {
    std::string out;
    for (double r : rates) out += " " + std::to_string(r);
    return out;
  }
};

struct Outcome {
  Metrics metrics;
  size_t attempted = 0;
  size_t failed = 0;
};

// ---------------------------------------------------------------------------
// Search workloads

Result<SearchSpec> SearchSpecFor(const std::string& workload, bool tiny) {
  if (workload == "search-default") {
    return SearchSpec{"cond(alg)+alt(fe,hp)", tiny ? 6.0 : 60.0, 1, 1};
  }
  if (workload == "search-joint") {
    return SearchSpec{"joint", tiny ? 8.0 : 200.0, 1, 1};
  }
  if (workload == "search-batch4") {
    return SearchSpec{"cond(alg)+alt(fe,hp)", tiny ? 8.0 : 60.0, 4, 2};
  }
  return Status::InvalidArgument("unknown workload " + workload);
}

Result<Outcome> RunSearchWorkload(const Args& args, const SearchSpec& spec,
                                  const std::string& csv, const Dataset& test,
                                  Tracer* tracer, Verdict* verdict) {
  Result<VolcanoMlOptions> parsed =
      volcanoml::SessionConfigToOptions(SearchConfig(spec));
  if (!parsed.ok()) return parsed.status();
  VolcanoMlOptions options = parsed.value();
  options.eval.num_threads = spec.threads;

  // Setup alone, a few times before every repetition: parse + prepare
  // takes milliseconds, so its median needs more samples than the
  // searches give, spread over the run like the searches are.
  std::vector<double> setup_s;
  std::vector<double> parse_ms;
  Tracer off(false);
  auto time_setups = [&]() -> Status {
    for (int i = 0; i < 4; ++i) {
      double parse_s = 0.0;
      Stopwatch clock;
      Result<std::unique_ptr<VolcanoML>> prepared =
          PrepareSearch(options, csv, &off, &parse_s);
      if (!prepared.ok()) return prepared.status();
      setup_s.push_back(clock.ElapsedSeconds());
      parse_ms.push_back(parse_s * 1e3);
    }
    return Status::Ok();
  };

  // Timed repetitions; the first is also the reference every later one
  // must reproduce. The traced run alternates untraced and traced
  // repetitions, so the tracing overhead is measured in one process.
  std::optional<SearchRep> reference;
  size_t attempted = 0;
  size_t failed = 0;
  Throughput untraced;
  Throughput traced;
  std::vector<double> traced_step_ms;
  const size_t min_reps = args.tiny ? 1 : (tracer->enabled() ? 2 : 3);
  // Traced repetitions continue until the step p90 has ten samples beyond
  // it, or until the run has taken twice its measuring time.
  const size_t min_traced_steps = args.tiny ? 1 : 100;
  Stopwatch measure;
  for (size_t rep = 0;; ++rep) {
    bool trace_rep = tracer->enabled() && rep % 2 == 1;
    Status setups = time_setups();
    if (!setups.ok()) return setups;
    Result<SearchRep> run = RunSearch(options, csv, trace_rep ? tracer : &off);
    if (!run.ok()) return run.status();
    setup_s.push_back(run.value().setup_s);
    parse_ms.push_back(run.value().parse_s * 1e3);
    if (trace_rep) {
      traced.Add(run.value().evaluations, run.value().wall_s);
      const std::vector<double>& steps = run.value().step_ms;
      traced_step_ms.insert(traced_step_ms.end(), steps.begin(), steps.end());
    } else {
      untraced.Add(run.value().evaluations, run.value().wall_s);
    }
    attempted += run.value().evaluations;
    failed += FailedTrials(*run.value().automl);
    if (!reference) {
      reference = std::move(run.value());
    } else {
      verdict->Check(run.value().fingerprint == reference->fingerprint &&
                         Bits(run.value().best_utility) ==
                             Bits(reference->best_utility),
                     "repetition " + std::to_string(rep) +
                         " took a different trajectory than the first");
    }
    const double t = measure.ElapsedSeconds();
    bool enough = t >= args.seconds && untraced.reps >= min_reps &&
                  (!tracer->enabled() ||
                   (traced.reps >= min_reps &&
                    (traced_step_ms.size() >= min_traced_steps ||
                     t >= 2 * args.seconds)));
    if (enough) break;
  }
  SearchRep& ref = *reference;

  // batch_size > 1 with several threads must commit exactly what one
  // thread commits.
  if (spec.threads > 1) {
    VolcanoMlOptions one_thread = options;
    one_thread.eval.num_threads = 1;
    Result<SearchRep> twin = RunSearch(one_thread, csv, &off);
    if (!twin.ok()) return twin.status();
    verdict->Check(twin.value().fingerprint == ref.fingerprint,
                   "the 1-thread twin took a different trajectory");
  }

  Stopwatch refit_clock;
  Result<volcanoml::FittedPipeline> pipeline = [&] {
    ScopedSpan span(tracer, "ml.refit");
    return ref.automl->FitFinalPipeline();
  }();
  double refit_ms = refit_clock.ElapsedSeconds() * 1e3;
  if (!pipeline.ok()) return pipeline.status();
  double test_ba = TestBalancedAccuracy(pipeline.value(), test,
                                        ref.automl->evaluator()->data().NumClasses());

  LayerReport report;
  ReplaySearches({ref.automl.get()}, tracer, args.tiny, verdict, &report);

  Outcome out;
  out.attempted = attempted;
  out.failed = failed;
  if (!tracer->enabled()) {
    Metrics& m = out.metrics;
    m.Add("evals_per_s", untraced.rate(), "1/s");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("best_valid_utility", ref.best_utility, "frac");
    m.Add("test_balanced_accuracy", test_ba, "frac");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("ok_frac", 1.0 - double(failed) / attempted, "frac");
    std::fprintf(stderr, "perfbench: evals/s of %zu timed searches:%s\n",
                 untraced.reps, untraced.Log().c_str());
    return out;
  }

  report.step_ms = std::move(traced_step_ms);
  TimeSnapshots(*ref.automl, options, csv, tracer, verdict, 5, &report.snapshot);
  volcanoml::CreateSessionRequest create;
  create.csv = csv;
  create.config = SearchConfig(spec);
  volcanoml::QuerySessionReply reply;
  reply.trajectory = ref.automl->result().trajectory;
  reply.best_assignment = ref.automl->result().best_assignment;
  report.ipc = TimeIpc(create, reply, tracer, verdict);
  double overhead = untraced.rate() / traced.rate() - 1.0;
  AddLayerMetrics(&out.metrics, report, untraced.mean_wall_s(), spec.threads,
                  /*snapshot_frac=*/0.0, Median(parse_ms), refit_ms, overhead,
                  tracer->spans().size());
  AddDaemonLayerMetrics(&out.metrics, {}, {}, {}, 0.0);
  return out;
}

// ---------------------------------------------------------------------------
// daemon-tenants

constexpr size_t kTenants = 4;

/// The sessions of one daemon repetition: round-robin over tenants,
/// cycling through plans and optimizers, each granted enough credit to run
/// to completion on the daemon's fair-share schedule.
std::vector<volcanoml::CreateSessionRequest> DaemonSessions(
    const std::string& csv, bool tiny) {
  const char* plans[] = {"joint", "cond(alg)+joint", "cond(alg)+alt(fe,hp)"};
  const char* optimizers[] = {"smac", "tpe", "random", "smac"};
  const size_t sessions = tiny ? 4 : 32;
  std::vector<volcanoml::CreateSessionRequest> out;
  for (size_t i = 0; i < sessions; ++i) {
    volcanoml::CreateSessionRequest request;
    request.tenant = "tenant-" + std::to_string(i % kTenants);
    request.dataset_name = "train";
    request.csv = csv;
    request.config.preset = 0;  // small
    request.config.plan = plans[i % 3];
    request.config.optimizer = optimizers[(i / kTenants) % 4];
    request.config.budget = tiny ? 4.0 : 20.0;
    request.config.seed = 100 + i;
    request.step_credit = volcanoml::kUnlimitedCredit;
    out.push_back(std::move(request));
  }
  return out;
}

/// The same session run in-process: the reference the daemon must match.
struct Twin {
  std::unique_ptr<VolcanoML> automl;
  VolcanoMlOptions options;
  std::vector<double> step_ms;
  uint64_t fingerprint = 0;
};

Result<Twin> RunTwin(const volcanoml::CreateSessionRequest& request,
                     Tracer* tracer, int64_t session) {
  Twin twin;
  Result<VolcanoMlOptions> options =
      volcanoml::SessionConfigToOptions(request.config);
  if (!options.ok()) return options.status();
  twin.options = options.value();
  Result<std::unique_ptr<VolcanoML>> prepared =
      PrepareSearch(twin.options, request.csv, tracer, nullptr);
  if (!prepared.ok()) return prepared.status();
  twin.automl = std::move(prepared.value());
  for (;;) {
    Stopwatch clock;
    ScopedSpan span(tracer, "core.step", session);
    if (!twin.automl->executor()->Step()) break;
    twin.step_ms.push_back(clock.ElapsedSeconds() * 1e3);
  }
  volcanoml::AutoMlResult result = twin.automl->Finish();
  twin.fingerprint = Fingerprint(result.trajectory, result.best_assignment,
                                 result.num_evaluations);
  return twin;
}

struct DaemonRep {
  double setup_s = 0.0;
  double window_s = 0.0;
  size_t evaluations = 0;
  size_t requests = 0;
  size_t request_errors = 0;
  size_t turns = 0;
  std::vector<double> create_ms;
  /// Status queries while sessions run: each waits for the scheduler turn
  /// in progress.
  std::vector<double> query_ms;
  std::vector<double> evict_ms;
  std::vector<uint64_t> fingerprints;  ///< Per session, in creation order.
};

/// Serves one daemon on a Unix socket in `dir` and loads it from one
/// closed-loop client: each request is sent only after the previous reply
/// arrived. The client creates every session, then queries their status
/// until all are done. The daemon never waits for the client: it runs a
/// scheduler turn whenever a session is runnable and answers at most one
/// request between turns, so a request waits for the turn in progress.
/// With `evict_after`, evicts each finished session once its result is
/// read; with `setup_only`, shuts the daemon down right after the first
/// reply.
Result<DaemonRep> RunDaemon(const std::vector<volcanoml::CreateSessionRequest>& sessions,
                            const std::string& dir, size_t max_resident,
                            bool evict_after, bool setup_only, Tracer* tracer) {
  DaemonRep rep;
  std::filesystem::create_directories(dir);
  volcanoml::DaemonOptions options;
  options.socket_path = dir + "/d.sock";
  options.spool_dir = dir;
  options.max_resident = max_resident;
  options.kb_path = dir + "/kb";
  volcanoml::Daemon daemon(options);
  volcanoml::DaemonClient client(options.socket_path);
  Status serve_status = Status::Ok();
  ScopedSpan rep_span(tracer, "daemon.rep");
  volcanoml::ThreadPool serve_pool(1);
  Stopwatch setup_clock;
  std::future<void> served =
      serve_pool.Submit([&] { serve_status = daemon.Serve(); });

  // The client's only wait: until the socket accepts the first request.
  std::vector<uint64_t> ids;
  Stopwatch window;
  {
    ScopedSpan span(tracer, "daemon.create", 0);
    for (;;) {
      Stopwatch request_clock;
      Result<uint64_t> created = client.CreateSession(sessions[0]);
      if (created.ok()) {
        rep.setup_s = setup_clock.ElapsedSeconds();
        rep.create_ms.push_back(request_clock.ElapsedSeconds() * 1e3);
        ids.push_back(created.value());
        break;
      }
      bool not_listening =
          created.status().message().rfind("connect(", 0) == 0;
      if (!not_listening || setup_clock.ElapsedSeconds() > 30.0) {
        daemon.RequestStop();
        served.wait();
        return Status::Internal("first CreateSession failed: " +
                                created.status().ToString());
      }
      std::this_thread::yield();
    }
  }
  window.Restart();
  rep.requests = 1;
  if (setup_only) {
    Result<uint64_t> shutdown = client.Shutdown();
    if (!shutdown.ok()) daemon.RequestStop();
    served.wait();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    if (!serve_status.ok()) return serve_status;
    return rep;
  }

  auto timed = [&](const char* name, int64_t session, auto&& call,
                   std::vector<double>* samples) {
    Stopwatch clock;
    ScopedSpan span(tracer, name, session);
    auto result = call();
    double ms = clock.ElapsedSeconds() * 1e3;
    samples->push_back(ms);
    ++rep.requests;
    if (!result.ok()) ++rep.request_errors;
    return result;
  };

  for (size_t i = 1; i < sessions.size(); ++i) {
    Result<uint64_t> created = timed(
        "daemon.create", static_cast<int64_t>(i),
        [&] { return client.CreateSession(sessions[i]); }, &rep.create_ms);
    if (!created.ok()) {
      daemon.RequestStop();
      served.wait();
      return Status::Internal("CreateSession: " + created.status().ToString());
    }
    ids.push_back(created.value());
  }

  // Status-only queries are the cheapest request, so the client's load on
  // the serve loop stays small next to the turns it measures.
  for (size_t i = 0; i < ids.size();) {
    volcanoml::QuerySessionRequest query;
    query.session_id = ids[i];
    Result<volcanoml::QuerySessionReply> reply = timed(
        "daemon.query", static_cast<int64_t>(i),
        [&] { return client.QuerySession(query); }, &rep.query_ms);
    if (!reply.ok()) break;
    const volcanoml::SessionStatus& s = reply.value().status;
    if (s.state == volcanoml::SessionState::kFailed) ++rep.request_errors;
    if (s.done || s.state == volcanoml::SessionState::kFailed) ++i;
  }
  rep.window_s = window.ElapsedSeconds();

  for (size_t i = 0; i < ids.size(); ++i) {
    volcanoml::QuerySessionRequest query;
    query.session_id = ids[i];
    query.include_trajectory = true;
    query.include_assignment = true;
    Result<volcanoml::QuerySessionReply> reply = [&] {
      ScopedSpan span(tracer, "daemon.result", static_cast<int64_t>(i));
      return client.QuerySession(query);
    }();
    ++rep.requests;
    if (!reply.ok()) {
      ++rep.request_errors;
      continue;
    }
    const volcanoml::SessionStatus& s = reply.value().status;
    rep.evaluations += s.telemetry.num_evaluations;
    rep.turns += s.steps;
    rep.fingerprints.push_back(Fingerprint(reply.value().trajectory,
                                           reply.value().best_assignment,
                                           s.telemetry.num_evaluations));
    if (evict_after) {
      // The trajectory query restored the session, so this evict writes
      // a real snapshot.
      Result<bool> evicted = timed(
          "daemon.evict", static_cast<int64_t>(i),
          [&] { return client.EvictSession(ids[i]); }, &rep.evict_ms);
      (void)evicted;
    }
  }
  Result<uint64_t> shutdown = client.Shutdown();
  if (!shutdown.ok()) daemon.RequestStop();
  served.wait();
  if (!serve_status.ok()) return serve_status;
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  return rep;
}

Result<Outcome> RunDaemonWorkload(const Args& args, const std::string& csv,
                                  const Dataset& test, Tracer* tracer,
                                  Verdict* verdict) {
  std::vector<volcanoml::CreateSessionRequest> sessions =
      DaemonSessions(csv, args.tiny);
  Tracer off(false);

  // In-process twins: the reference trajectories, and the finished
  // searches the per-layer replays run on.
  std::vector<Twin> twins;
  std::vector<double> twin_step_ms;
  for (size_t i = 0; i < sessions.size(); ++i) {
    Result<Twin> twin = RunTwin(sessions[i], tracer, static_cast<int64_t>(i));
    if (!twin.ok()) return twin.status();
    for (double ms : twin.value().step_ms) twin_step_ms.push_back(ms);
    twins.push_back(std::move(twin.value()));
  }

  Throughput untraced;
  Throughput traced;
  std::vector<double> setup_s;
  std::vector<double> create_ms;
  std::vector<double> query_ms;
  std::vector<double> evict_ms;
  double turns = 0.0;
  size_t attempted = 0;
  size_t request_errors = 0;
  // Traced: four repetitions give the create p90 its 128 samples.
  const size_t min_reps = args.tiny ? 1 : (tracer->enabled() ? 4 : 5);
  // Setup alone, a few times before every repetition: bind plus the
  // first CreateSession takes about a millisecond, so its median needs
  // more samples than the repetitions give.
  auto time_setups = [&](size_t rep) -> Status {
    for (int i = 0; i < 3; ++i) {
      Result<DaemonRep> run = RunDaemon(
          sessions,
          args.work_dir + "/setup-" + std::to_string(rep) + "-" +
              std::to_string(i),
          /*max_resident=*/2, false, /*setup_only=*/true, &off);
      if (!run.ok()) return run.status();
      setup_s.push_back(run.value().setup_s);
      attempted += run.value().requests;
    }
    return Status::Ok();
  };
  Stopwatch measure;
  for (size_t rep = 0;; ++rep) {
    Status setups = time_setups(rep);
    if (!setups.ok()) return setups;
    // Repetition 0 warms up and is not timed. The traced run alternates
    // untraced and traced repetitions, as the search workloads do.
    bool trace_rep = tracer->enabled() && rep % 2 == 1;
    Result<DaemonRep> run =
        RunDaemon(sessions, args.work_dir + "/daemon-" + std::to_string(rep),
                  /*max_resident=*/2, /*evict_after=*/trace_rep,
                  /*setup_only=*/false, trace_rep ? tracer : &off);
    if (!run.ok()) return run.status();
    const DaemonRep& r = run.value();
    attempted += r.requests;
    request_errors += r.request_errors;
    verdict->Check(r.request_errors == 0,
                   "daemon repetition " + std::to_string(rep) + " had " +
                       std::to_string(r.request_errors) + " failed requests");
    verdict->Check(r.fingerprints.size() == twins.size(),
                   "daemon repetition lost sessions");
    for (size_t i = 0; i < r.fingerprints.size() && i < twins.size(); ++i) {
      verdict->Check(r.fingerprints[i] == twins[i].fingerprint,
                     "daemon session " + std::to_string(i) +
                         " differs from its in-process twin");
    }
    if (rep == 0) continue;
    setup_s.push_back(r.setup_s);
    turns = static_cast<double>(r.turns);
    if (trace_rep) {
      traced.Add(r.evaluations, r.window_s);
      create_ms.insert(create_ms.end(), r.create_ms.begin(), r.create_ms.end());
      query_ms.insert(query_ms.end(), r.query_ms.begin(), r.query_ms.end());
      evict_ms.insert(evict_ms.end(), r.evict_ms.begin(), r.evict_ms.end());
    } else {
      untraced.Add(r.evaluations, r.window_s);
    }
    if (measure.ElapsedSeconds() >= args.seconds && untraced.reps >= min_reps &&
        (!tracer->enabled() || traced.reps >= min_reps)) {
      break;
    }
  }

  size_t evaluations = 0;
  size_t failed_trials = 0;
  double best = 0.0;
  double test_ba = 0.0;
  double refit_ms = 0.0;
  for (Twin& twin : twins) {
    evaluations += twin.automl->result().num_evaluations;
    failed_trials += FailedTrials(*twin.automl);
    best += twin.automl->result().best_utility;
    Stopwatch clock;
    Result<volcanoml::FittedPipeline> pipeline = [&] {
      ScopedSpan span(tracer, "ml.refit");
      return twin.automl->FitFinalPipeline();
    }();
    refit_ms += clock.ElapsedSeconds() * 1e3;
    if (!pipeline.ok()) return pipeline.status();
    test_ba += TestBalancedAccuracy(pipeline.value(), test,
                                    twin.automl->evaluator()->data().NumClasses());
  }
  const double n = static_cast<double>(twins.size());

  std::vector<const VolcanoML*> searches;
  for (const Twin& twin : twins) searches.push_back(twin.automl.get());
  LayerReport report;
  ReplaySearches(searches, tracer, args.tiny, verdict, &report);

  Outcome out;
  out.attempted = evaluations + attempted;
  out.failed = failed_trials + request_errors;
  if (!tracer->enabled()) {
    Metrics& m = out.metrics;
    m.Add("evals_per_s", untraced.rate(), "1/s");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("best_valid_utility", best / n, "frac");
    m.Add("test_balanced_accuracy", test_ba / n, "frac");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("ok_frac", 1.0 - double(out.failed) / out.attempted, "frac");
    std::fprintf(stderr, "perfbench: evals/s of %zu timed daemon runs:%s\n",
                 untraced.reps, untraced.Log().c_str());
    return out;
  }

  // The residency cap's cost: the same load with every session resident.
  Throughput uncapped;
  for (int rep = 0; rep < (args.tiny ? 1 : 3); ++rep) {
    Result<DaemonRep> run = RunDaemon(
        sessions, args.work_dir + "/uncapped-" + std::to_string(rep),
        /*max_resident=*/sessions.size() + 1, false, false, &off);
    if (!run.ok()) return run.status();
    uncapped.Add(run.value().evaluations, run.value().window_s);
  }
  double snapshot_frac = 1.0 - untraced.rate() / uncapped.rate();

  report.step_ms = std::move(twin_step_ms);
  for (Twin& twin : twins) {
    TimeSnapshots(*twin.automl, twin.options, csv, tracer, verdict, 1,
                  &report.snapshot);
  }
  volcanoml::QuerySessionReply reply;
  reply.trajectory = twins.front().automl->result().trajectory;
  reply.best_assignment = twins.front().automl->result().best_assignment;
  report.ipc = TimeIpc(sessions.front(), reply, tracer, verdict);
  // Busy fractions are set against the wall time the twins' searches
  // would take in the daemon's capped window.
  double busy_wall_s = untraced.mean_wall_s();
  std::vector<double> parse_ms = tracer->DurationsMs("data.csv_parse");
  AddLayerMetrics(&out.metrics, report, busy_wall_s, 1, snapshot_frac,
                  Median(parse_ms), refit_ms / n,
                  untraced.rate() / traced.rate() - 1.0,
                  tracer->spans().size());
  AddDaemonLayerMetrics(&out.metrics, create_ms, query_ms, evict_ms, turns);
  return out;
}

// ---------------------------------------------------------------------------

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--train") {
      args.train_path = value;
    } else if (flag == "--test") {
      args.test_path = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.train_path.empty() ||
      args.test_path.empty() || args.work_dir.empty()) {
    return Status::InvalidArgument(
        "--workload, --train, --test and --work-dir are required");
  }
  return args;
}

int Main(int argc, char** argv) {
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Args& args = parsed.value();
  std::string csv;
  std::string test_csv;
  if (!ReadFile(args.train_path, &csv) || !ReadFile(args.test_path, &test_csv)) {
    std::fprintf(stderr, "perfbench: cannot read the input CSV files\n");
    return 2;
  }
  Result<Dataset> test = volcanoml::ParseCsvDataset(
      test_csv, TaskType::kClassification, "test", args.test_path);
  if (!test.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", test.status().ToString().c_str());
    return 2;
  }

  Tracer tracer(args.trace);
  Verdict verdict;
  Result<Outcome> outcome = Status::InvalidArgument("unknown workload");
  if (args.workload == "daemon-tenants") {
    outcome = RunDaemonWorkload(args, csv, test.value(), &tracer, &verdict);
  } else {
    Result<SearchSpec> spec = SearchSpecFor(args.workload, args.tiny);
    outcome = spec.ok() ? RunSearchWorkload(args, spec.value(), csv, test.value(),
                                            &tracer, &verdict)
                        : Result<Outcome>(spec.status());
  }
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", outcome.status().ToString().c_str());
    return 2;
  }
  if (args.trace && !args.trace_out.empty()) {
    if (!tracer.WriteJsonl(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
    for (const auto& [name, s] : tracer.Summarize()) {
      std::fprintf(stderr, "span %-22s n=%6zu total=%10.2f ms self=%10.2f ms\n",
                   name.c_str(), s.count, s.total_ms, s.self_ms);
    }
  }
  std::string line = "{\"correct\": " + std::string(verdict.ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.value().attempted) +
                     ", \"failed\": " + std::to_string(outcome.value().failed) +
                     ", \"metrics\": " + outcome.value().metrics.Json() + "}";
  std::fprintf(stdout, "%s\n", line.c_str());
  return verdict.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
