#include "ensemble/service.hpp"

#include <algorithm>
#include <chrono>

#include "core/util/error.hpp"

namespace cyclone::ensemble {

using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The roster a request contributes: specs {seed, 0..members-1}.
void add_specs(std::vector<MemberSpec>& roster, const ForecastRequest& request) {
  for (int i = 0; i < request.members; ++i) {
    const MemberSpec spec{request.seed, i};
    if (std::find(roster.begin(), roster.end(), spec) == roster.end()) roster.push_back(spec);
  }
}

/// Whether two requests run the same program: same core, grid (npx, the
/// dycore's npz) and tracer count. The IC, steps, backend and chaos flag do
/// not shape the program.
bool same_program(const ForecastRequest& a, const ForecastRequest& b) {
  return a.core == b.core && a.npx == b.npx && (a.core != "dycore" || a.npz == b.npz) &&
         a.ntracers == b.ntracers;
}

std::string validate(const ForecastRequest& r) {
  std::string ic_error;
  if (r.core == fv3::DistributedModel::core_name) {
    ic_error = fv3::DistributedModel::initial_condition_error(r.ic);
  } else if (r.core == swe::SweModel::core_name) {
    ic_error = swe::SweModel::initial_condition_error(r.ic);
  } else {
    return "unknown core '" + r.core + "'";
  }
  if (!ic_error.empty()) return ic_error;
  if (r.members < 1) return "members must be >= 1";
  if (r.steps < 1) return "steps must be >= 1";
  if (r.npx < 4) return "npx too small";
  if (r.core == "dycore" && r.npz < 2) return "npz too small";
  if (r.ntracers < 1) return "ntracers must be >= 1";
  return {};
}

}  // namespace

swe::SweConfig standard_swe_config(int npx, int ntracers) {
  swe::SweConfig cfg;
  cfg.npx = npx;
  cfg.ntracers = ntracers;
  return cfg;
}

fv3::FvConfig standard_dycore_config(int npx, int npz, int ntracers) {
  fv3::FvConfig cfg;
  cfg.npx = npx;
  cfg.npz = npz;
  cfg.k_split = 1;
  cfg.n_split = 2;
  cfg.ntracers = ntracers;
  cfg.dt = 300.0;
  return cfg;
}

bool coalescible(const ForecastRequest& a, const ForecastRequest& b) {
  return same_program(a, b) && a.ic == b.ic && a.steps == b.steps && a.backend == b.backend &&
         a.chaos == b.chaos;
}

std::vector<size_t> coalesce_batch(const std::vector<ForecastRequest>& queue, int max_members) {
  std::vector<size_t> picked;
  if (queue.empty()) return picked;
  picked.push_back(0);  // the head never starves, whatever its size
  std::vector<MemberSpec> roster;
  add_specs(roster, queue[0]);
  for (size_t i = 1; i < queue.size(); ++i) {
    if (!coalescible(queue[0], queue[i])) continue;
    const size_t before = roster.size();
    add_specs(roster, queue[i]);
    if (static_cast<int>(roster.size()) > max_members) {
      roster.resize(before);  // over the cap — skip, a smaller one may still fit
      continue;
    }
    picked.push_back(i);
  }
  return picked;
}

ForecastService::ForecastService() : ForecastService(Options{}) {}

ForecastService::ForecastService(Options options) : options_(options) {
  CY_REQUIRE_MSG(options_.workers >= 1, "service needs at least one worker");
  CY_REQUIRE_MSG(options_.max_batch_members >= 1, "batch cap must be >= 1");
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ForecastService::~ForecastService() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ForecastService::Ticket ForecastService::submit(const ForecastRequest& request) {
  Ticket ticket;
  std::promise<ForecastResult> promise;
  ticket.result = promise.get_future();
  const std::string error = validate(request);
  std::lock_guard<std::mutex> lock(mutex_);
  ticket.id = next_id_++;
  ++stats_.submitted;
  if (!error.empty()) {
    ++stats_.failed;
    ForecastResult result;
    result.error = error;
    result.sequence = next_sequence_++;
    promise.set_value(std::move(result));
    return ticket;
  }
  ++in_flight_;
  queue_.push_back(Pending{ticket.id, request, std::move(promise), Clock::now()});
  cv_.notify_one();
  return ticket;
}

bool ForecastService::cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) continue;
    ForecastResult result;
    result.error = "cancelled";
    result.sequence = next_sequence_++;
    it->promise.set_value(std::move(result));
    queue_.erase(it);
    ++stats_.cancelled;
    --in_flight_;
    idle_cv_.notify_all();
    return true;
  }
  return false;
}

void ForecastService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

ServiceStats ForecastService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

/// One worker's built programs, most recently used first.
class ForecastService::ProgramCache {
 public:
  /// The program built for `request`'s shape, now the most recent; null
  /// when the worker never served the shape or has evicted it.
  std::shared_ptr<ir::Program> find(const ForecastRequest& request) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return same_program(e.shape, request); });
    if (it == entries_.end()) return nullptr;
    std::rotate(entries_.begin(), it, it + 1);
    return entries_.front().program;
  }

  /// Keep `program` as the most recent shape, evicting the least recent
  /// one beyond kProgramsPerWorker.
  void put(const ForecastRequest& request, std::shared_ptr<ir::Program> program) {
    entries_.insert(entries_.begin(), Entry{request, std::move(program)});
    if (entries_.size() > static_cast<size_t>(kProgramsPerWorker)) entries_.pop_back();
  }

 private:
  struct Entry {
    ForecastRequest shape;
    std::shared_ptr<ir::Program> program;
  };
  std::vector<Entry> entries_;
};

void ForecastService::worker_loop(int worker) {
  ProgramCache programs;
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      std::vector<ForecastRequest> requests;
      requests.reserve(queue_.size());
      for (const Pending& p : queue_) requests.push_back(p.request);
      const std::vector<size_t> picked = coalesce_batch(requests, options_.max_batch_members);
      batch.reserve(picked.size());
      for (auto it = picked.rbegin(); it != picked.rend(); ++it) {
        batch.push_back(std::move(queue_[*it]));
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(*it));
      }
      std::reverse(batch.begin(), batch.end());
      ++stats_.batches;
      if (batch.size() > 1) stats_.coalesced_requests += static_cast<long>(batch.size());
    }
    run_batch(std::move(batch), worker, programs);
  }
}

namespace {

/// Run one batch on `program` (null: build it) and return the program the
/// batch ran.
template <class Model>
std::shared_ptr<ir::Program> run_batch_core(const ForecastService::Options& options,
                                            const ForecastRequest& head,
                                            const typename Model::Config& config,
                                            const std::vector<MemberSpec>& roster,
                                            std::shared_ptr<ir::Program> program,
                                            std::vector<MemberForecast>& out,
                                            comm::RunReport& report) {
  EnsembleOptions opts;
  opts.members = roster;
  opts.amplitude = options.amplitude;
  opts.num_ranks = options.num_ranks;
  opts.run = options.run;
  opts.run.backend = head.backend;
  opts.runtime = options.runtime;
  EnsembleRunner<Model> runner(config, std::move(opts), head.ic, std::move(program));
  if (head.chaos) {
    report = runner.run_resilient(head.steps);
    if (!report.ok) throw Error("resilient ensemble run failed: " + report.failure);
  } else {
    runner.run(head.steps);
    report.ok = true;
    report.steps_completed = head.steps;
  }
  out.reserve(roster.size());
  for (int m = 0; m < runner.members(); ++m) {
    out.push_back(MemberForecast{roster[static_cast<size_t>(m)], runner.member(m).assemble()});
  }
  return runner.member(0).shared_program();
}

}  // namespace

void ForecastService::run_batch(std::vector<Pending> batch, int worker,
                                ProgramCache& programs) {
  const Clock::time_point start = Clock::now();
  const ForecastRequest& head = batch.front().request;
  std::vector<MemberSpec> roster;
  for (const Pending& p : batch) add_specs(roster, p.request);

  std::vector<MemberForecast> outputs;
  comm::RunReport report;
  std::string error;
  std::shared_ptr<ir::Program> program = programs.find(head);
  const bool program_cached = program != nullptr;
  try {
    if (head.core == fv3::DistributedModel::core_name) {
      program = run_batch_core<fv3::DistributedModel>(
          options_, head, standard_dycore_config(head.npx, head.npz, head.ntracers), roster,
          std::move(program), outputs, report);
    } else {
      program = run_batch_core<swe::SweModel>(options_, head,
                                              standard_swe_config(head.npx, head.ntracers),
                                              roster, std::move(program), outputs, report);
    }
    if (!program_cached) programs.put(head, std::move(program));
  } catch (const std::exception& e) {
    error = e.what();
  }
  const Clock::time_point end = Clock::now();
  const double run_seconds = seconds_between(start, end);

  for (Pending& p : batch) {
    ForecastResult result;
    result.queue_seconds = seconds_between(p.submitted, start);
    result.run_seconds = run_seconds;
    result.batch_members = static_cast<int>(roster.size());
    result.coalesced_requests = static_cast<int>(batch.size());
    result.worker = worker;
    result.program_cached = program_cached;
    result.report = report;
    if (error.empty()) {
      result.ok = true;
      result.members.reserve(static_cast<size_t>(p.request.members));
      for (int i = 0; i < p.request.members; ++i) {
        const MemberSpec spec{p.request.seed, i};
        const auto it = std::find_if(outputs.begin(), outputs.end(),
                                     [&](const MemberForecast& f) { return f.spec == spec; });
        CY_REQUIRE_MSG(it != outputs.end(), "batch lost a member spec");
        result.members.push_back(*it);  // shared members are copied per request
      }
    } else {
      result.error = error;
    }
    result.latency_seconds = seconds_between(p.submitted, Clock::now());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      result.sequence = next_sequence_++;
      if (error.empty()) {
        ++stats_.completed;
      } else {
        ++stats_.failed;
      }
      --in_flight_;
    }
    idle_cv_.notify_all();
    p.promise.set_value(std::move(result));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.member_steps += static_cast<long>(roster.size()) * head.steps;
  stats_.busy_seconds += run_seconds;
}

}  // namespace cyclone::ensemble
