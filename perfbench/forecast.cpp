// forecast_mix: one generator (this thread) drives ensemble::ForecastService
// in a closed loop with a fixed number of requests outstanding. The request
// sequence — shape, member count, seed — is a pure function of the workload
// seed.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <tuple>

#include "bench.hpp"
#include "core/exec/jit/cache.hpp"
#include "core/util/rng.hpp"
#include "ensemble/service.hpp"

namespace perfbench {

namespace {

using cyclone::ensemble::ForecastRequest;
using cyclone::ensemble::ForecastResult;
using cyclone::ensemble::ForecastService;
using cyclone::exec::jit::KernelCache;

constexpr int kOutstanding = 4;
/// Perturbation seed of the committed ensemble goldens.
constexpr uint64_t kCorpusSeed = 0x5EEDC0DEull;

struct Shape {
  ForecastRequest base;
  std::string golden;  ///< corpus golden stem; empty when none
  int weight = 1;      ///< share of the request mix, in units of four requests
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  ForecastRequest swe12;  // the ens_swe_c12_hill_m4 scenario
  swe12.core = "swe";
  swe12.ic = "hill";
  swe12.npx = 12;
  swe12.ntracers = 2;
  swe12.steps = 2;
  swe12.backend = cyclone::exec::ExecBackend::Jit;
  out.push_back({swe12, "ens_swe_c12_hill_m4", 2});
  ForecastRequest dyn12 = swe12;  // the ens_dycore_c12z4_baro_m4 scenario
  dyn12.core = "dycore";
  dyn12.ic = "baro";
  dyn12.npz = 4;
  dyn12.ntracers = 1;
  out.push_back({dyn12, "ens_dycore_c12z4_baro_m4", 2});
  ForecastRequest swe48 = swe12;  // a larger shape with no golden
  swe48.npx = 48;
  out.push_back({swe48, "", 1});
  return out;
}

/// The seeded request stream, drawn in blocks that hold every shape in
/// proportion to its weight (four requests per unit), members cycling
/// through 1-4 and a quarter of each shape's requests at the corpus seed.
/// The seed shuffles each block, and each shape's other requests take their
/// seeds from a seeded permutation of eight seeds derived from the workload
/// seed (so identical members recur and the service's deduplication has work
/// to do). Fixed block contents keep the mix, and so the cost per request,
/// the same from seed to seed.
class RequestStream {
 public:
  RequestStream(uint64_t seed, const std::vector<Shape>& shapes)
      : rng_(cyclone::Rng::derive(seed, 0xF0CA57)), shapes_(shapes) {
    for (uint64_t k = 0; k < 8; ++k) pool_.push_back(cyclone::Rng::mix(seed, 100 + k));
  }

  std::pair<int, ForecastRequest> next() {
    if (block_.empty()) refill();
    auto item = block_.back();
    block_.pop_back();
    return item;
  }

 private:
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng_.next_below(i)]);
  }

  void refill() {
    for (size_t s = 0; s < shapes_.size(); ++s) {
      const int count = 4 * shapes_[s].weight;
      std::vector<uint64_t> seeds = pool_;
      shuffle(seeds);
      std::vector<char> corpus(static_cast<size_t>(count), 0);
      for (int j = 0; j < count / 4; ++j) corpus[static_cast<size_t>(j)] = 1;
      shuffle(corpus);
      for (int j = 0; j < count; ++j) {
        ForecastRequest req = shapes_[s].base;
        req.members = 1 + j % 4;
        req.seed = corpus[static_cast<size_t>(j)] ? kCorpusSeed
                                                  : seeds[static_cast<size_t>(j) % seeds.size()];
        block_.emplace_back(static_cast<int>(s), req);
      }
    }
    shuffle(block_);
  }

  cyclone::Rng rng_;
  const std::vector<Shape>& shapes_;
  std::vector<uint64_t> pool_;
  std::vector<std::pair<int, ForecastRequest>> block_;
};

/// Checks every served result: ok, corpus-seed members equal the committed
/// golden, and a member served twice is bitwise identical both times.
class Gate {
 public:
  explicit Gate(const std::vector<Shape>& shapes) : shapes_(shapes) {
    for (const auto& s : shapes) {
      goldens_.push_back(s.golden.empty() ? cyclone::verify::GoldenSnapshot{}
                                          : cyclone::verify::GoldenSnapshot::load(
                                                corpus_dir() + "/" + s.golden + ".gold"));
    }
  }

  /// Empty string when the result passes.
  std::string check(int shape, const ForecastRequest& req, const ForecastResult& res) {
    if (!res.ok) return "request failed: " + res.error;
    if (static_cast<int>(res.members.size()) != req.members) return "member count mismatch";
    for (const auto& member : res.members) {
      if (req.seed == kCorpusSeed && !shapes_[static_cast<size_t>(shape)].golden.empty()) {
        const std::string diff =
            compare_to_golden(goldens_[static_cast<size_t>(shape)], member.spec.index,
                              member.fields);
        if (!diff.empty()) return shapes_[static_cast<size_t>(shape)].golden + ": " + diff;
        ++golden_members_;
      }
      const auto key = std::make_tuple(shape, member.spec.seed, member.spec.index);
      const auto [it, inserted] = seen_.emplace(key, member.fields);
      if (!inserted) {
        const std::string diff = compare_fields(it->second, member.fields);
        if (!diff.empty()) return "member served twice differs: " + diff;
        ++repeat_members_;
      }
    }
    return {};
  }

  [[nodiscard]] long golden_members() const { return golden_members_; }
  [[nodiscard]] long repeat_members() const { return repeat_members_; }

 private:
  const std::vector<Shape>& shapes_;
  std::vector<cyclone::verify::GoldenSnapshot> goldens_;
  std::map<std::tuple<int, uint64_t, int>, std::vector<cyclone::verify::GoldenField>> seen_;
  long golden_members_ = 0;
  long repeat_members_ = 0;
};

/// Samples of one closed-loop phase.
struct Phase {
  std::vector<double> latency, queue, run, step, batch_members;
  long attempted = 0, failed = 0, member_steps = 0;
  double wall = 0;
  cyclone::ensemble::ServiceStats stats;  ///< service counters over the phase
};

cyclone::ensemble::ServiceStats delta(const cyclone::ensemble::ServiceStats& a,
                                      const cyclone::ensemble::ServiceStats& b) {
  cyclone::ensemble::ServiceStats d;
  d.completed = b.completed - a.completed;
  d.batches = b.batches - a.batches;
  d.coalesced_requests = b.coalesced_requests - a.coalesced_requests;
  d.member_steps = b.member_steps - a.member_steps;
  d.busy_seconds = b.busy_seconds - a.busy_seconds;
  return d;
}

/// Keep `kOutstanding` requests in flight until `seconds` have passed and
/// at least `min_samples` completed; then drain. With a trace, each request
/// gets a span with its queue and run intervals as children.
Phase closed_loop(ForecastService& service, RequestStream& stream, Gate& gate,
                  RunResult& result, double seconds, long min_samples, Trace* trace) {
  struct Live {
    int shape;
    ForecastRequest request;
    double submitted;  ///< trace clock
    ForecastService::Ticket ticket;
  };
  Phase phase;
  const auto before = service.stats();
  std::deque<Live> live;
  const auto t0 = Clock::now();
  long completed = 0;
  constexpr double kCapSeconds = 90;
  auto keep_submitting = [&] {
    const double t = seconds_since(t0);
    return t < seconds || (completed + static_cast<long>(live.size()) < min_samples &&
                           t < kCapSeconds);
  };
  while (true) {
    while (static_cast<int>(live.size()) < kOutstanding && keep_submitting()) {
      auto [shape, req] = stream.next();
      const double submitted = trace ? trace->now() : 0.0;
      live.push_back(Live{shape, req, submitted, service.submit(req)});
      ++phase.attempted;
    }
    if (live.empty()) break;
    // Wait for whichever request finishes first (futures complete in batch
    // order, not submission order).
    auto done = live.end();
    while (done == live.end()) {
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (it->ticket.result.wait_for(std::chrono::microseconds(200)) ==
            std::future_status::ready) {
          done = it;
          break;
        }
      }
    }
    Live item = std::move(*done);
    live.erase(done);
    ++completed;
    ForecastResult res;
    try {
      res = item.ticket.result.get();
    } catch (const std::exception& e) {
      res.ok = false;
      res.error = e.what();
    }
    const std::string why = gate.check(item.shape, item.request, res);
    if (!res.ok) ++phase.failed;
    if (!why.empty()) {
      result.fail(why);
      continue;
    }
    phase.latency.push_back(res.latency_seconds);
    phase.queue.push_back(res.queue_seconds);
    phase.run.push_back(res.run_seconds);
    phase.step.push_back(res.run_seconds / item.request.steps);
    phase.batch_members.push_back(res.batch_members);
    phase.member_steps += static_cast<long>(item.request.members) * item.request.steps;
    if (trace) {
      const double s = item.submitted;
      const int span = trace->add("request", "service", s, s + res.latency_seconds, -1,
                                  static_cast<long>(item.ticket.id), item.shape);
      trace->add("queue", "service", s, s + res.queue_seconds, span,
                 static_cast<long>(item.ticket.id), item.shape);
      trace->add("batch_run", "ensemble", s + res.latency_seconds - res.run_seconds,
                 s + res.latency_seconds, span, static_cast<long>(item.ticket.id), item.shape);
    }
  }
  phase.wall = seconds_since(t0);
  phase.stats = delta(before, service.stats());
  return phase;
}

ForecastService::Options service_options(int threads) {
  ForecastService::Options so;
  so.num_ranks = 6;
  so.workers = 1;
  so.run.backend = cyclone::exec::ExecBackend::Jit;
  so.run.num_threads = threads;
  return so;
}

}  // namespace

RunResult run_forecast_mix(const Options& options) {
  RunResult result;
  const std::string cache_dir = options.out_dir + "/jit-warm";
  std::filesystem::create_directories(cache_dir);
  setenv("CYCLONE_JIT_CACHE_DIR", cache_dir.c_str(), 1);
  KernelCache& cache = KernelCache::global();
  if (cache.dir() != cache_dir) throw std::runtime_error("kernel cache already bound elsewhere");
  const cyclone::exec::jit::CacheStats jit0 = cache.stats();

  const std::vector<Shape> mix = shapes();
  Gate gate(mix);

  // Set-up: a fresh service serves one corpus-seed request of every shape
  // (model construction, initial condition, kernel load, stepping). The
  // first round fills the private kernel cache and is not timed. It also
  // serves, for every shape, the largest batch the closed loop can form:
  // kOutstanding requests with four distinct members each, queued behind a
  // running request of another shape so that they coalesce. The run's peak
  // memory is then set here, not by whichever batches a seed happens to form.
  const int timed_setups = options.trace ? 1 : 3;
  std::vector<double> setup_s;
  for (int rep = 0; rep <= timed_setups; ++rep) {
    cache.clear_memory();
    const auto t0 = Clock::now();
    ForecastService service(service_options(options.threads));
    std::vector<std::pair<int, ForecastRequest>> batch;  // shape -1: the blocker
    if (rep == 0) {
      ForecastRequest blocker = mix.front().base;
      blocker.ic = "vortex";
      blocker.members = 1;
      batch.emplace_back(-1, blocker);
    }
    for (int k = 0; k < (rep == 0 ? kOutstanding : 1); ++k) {
      for (size_t s = 0; s < mix.size(); ++s) {
        ForecastRequest req = mix[s].base;
        req.members = 4;
        req.seed =
            k == 0 ? kCorpusSeed : cyclone::Rng::mix(kCorpusSeed, static_cast<uint64_t>(k));
        batch.emplace_back(static_cast<int>(s), req);
      }
    }
    std::vector<ForecastService::Ticket> tickets;
    for (const auto& [shape, req] : batch) tickets.push_back(service.submit(req));
    for (size_t i = 0; i < tickets.size(); ++i) {
      const ForecastResult res = tickets[i].result.get();
      const std::string why = batch[i].first < 0 ? (res.ok ? "" : "request failed: " + res.error)
                                                 : gate.check(batch[i].first, batch[i].second, res);
      if (!why.empty()) result.fail("set-up: " + why);
    }
    if (rep > 0) setup_s.push_back(seconds_since(t0));
  }
  std::fprintf(stderr, "set-up: %.3f s median of %zu\n", quantile(setup_s, 0.5), setup_s.size());

  ForecastService service(service_options(options.threads));
  RequestStream stream(options.seed, mix);
  Metrics& m = result.metrics;
  if (!options.trace) {
    const Phase p = closed_loop(service, stream, gate, result, options.seconds, kMinTailSamples,
                                nullptr);
    result.attempted = p.attempted;
    result.failed = p.failed;
    const auto n = static_cast<long>(p.latency.size());
    if (n < kMinTailSamples) result.fail("fewer than 100 requests: no p90");
    m.set("setup_s", quantile(setup_s, 0.5), "s");
    m.count("setup_s", static_cast<long>(setup_s.size()));
    m.set("step_s.p50", quantile(p.step, 0.5), "s");
    m.set("step_s.p90", quantile(p.step, 0.9), "s");
    m.set("latency_s.p50", quantile(p.latency, 0.5), "s");
    m.set("latency_s.p90", quantile(p.latency, 0.9), "s");
    for (const char* t : {"step_s.p50", "step_s.p90", "latency_s.p50", "latency_s.p90"}) {
      m.count(t, n);
    }
    m.set("requests_per_s", static_cast<double>(n) / p.wall, "1/s");
    m.set("member_steps_per_s", static_cast<double>(p.member_steps) / p.wall, "1/s");
    m.set("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
  } else {
    const Phase untraced = closed_loop(service, stream, gate, result, options.seconds / 2, 10,
                                       nullptr);
    Trace trace;
    const Phase p = closed_loop(service, stream, gate, result, options.seconds / 2, 10, &trace);
    result.attempted = untraced.attempted + p.attempted;
    result.failed = untraced.failed + p.failed;
    m.set("ensemble.run_s.p50", quantile(p.run, 0.5), "s");
    m.set("ensemble.batch_members.mean", mean(p.batch_members), "count");
    m.set("service.queue_s.p50", quantile(p.queue, 0.5), "s");
    m.set("service.batches", static_cast<double>(p.stats.batches), "count");
    m.set("service.coalesced_ratio",
          static_cast<double>(p.stats.coalesced_requests) /
              static_cast<double>(std::max(1L, p.stats.completed)),
          "ratio");
    m.set("service.busy_ratio", p.stats.busy_seconds / p.wall, "ratio");
    m.set("service.dedup_ratio",
          static_cast<double>(p.member_steps) / static_cast<double>(std::max(1L, p.stats.member_steps)),
          "ratio");
    const cyclone::exec::jit::CacheStats jit1 = cache.stats();
    m.set("jit.compiles", static_cast<double>(jit1.compiles - jit0.compiles), "count");
    m.set("jit.disk_hits", static_cast<double>(jit1.disk_hits - jit0.disk_hits), "count");
    m.set("jit.mem_hits", static_cast<double>(jit1.mem_hits - jit0.mem_hits), "count");
    m.set("trace.overhead_ratio", quantile(p.latency, 0.5) / quantile(untraced.latency, 0.5),
          "ratio");
    m.set("trace.spans", static_cast<double>(trace.spans().size()), "count");
    m.count("ensemble.run_s.p50", static_cast<long>(p.run.size()));
    m.count("service.queue_s.p50", static_cast<long>(p.queue.size()));
    const std::string stem = options.out_dir + "/" + options.workload + "-s" +
                             std::to_string(options.seed);
    trace.write_chrome_json(stem + ".trace.json");
    const std::string table = trace.layer_table();
    if (FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
      std::fputs(table.c_str(), f);
      std::fclose(f);
    }
    std::fputs(table.c_str(), stderr);
  }
  std::fprintf(stderr, "gate: %ld members matched goldens, %ld repeated members identical\n",
               gate.golden_members(), gate.repeat_members());
  if (gate.golden_members() == 0) result.fail("no served member was checked against a golden");
  return result;
}

}  // namespace perfbench
