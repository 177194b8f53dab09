#include "core/sut.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/distributions.h"

namespace jasim {

SystemUnderTest::SystemUnderTest(
    const SutConfig &config,
    std::shared_ptr<const WorkloadProfiles> profiles,
    std::shared_ptr<const MethodRegistry> registry, std::uint64_t seed,
    EventQueue *external_queue, RemoteDbTier remote_db,
    HeapWorker *heap_worker)
    : config_(config), profiles_(std::move(profiles)),
      registry_(std::move(registry)),
      owned_queue_(external_queue ? nullptr
                                  : std::make_unique<EventQueue>()),
      queue_(external_queue ? *external_queue : *owned_queue_),
      scheduler_(config.cpus),
      disk_(config.disk), gc_(config.gc, seed ^ 0x6cull, heap_worker),
      jit_(config.jit, *registry_),
      web_(config.web), ejb_(config.ejb),
      pool_(queue_, config.was_threads, "WebContainer"),
      rng_(seed), remote_db_(std::move(remote_db))
{
    assert(profiles_ && registry_);
    // The application seeds its own RNG, so building it or not moves
    // nothing else.
    if (!remote_db_) {
        app_ = std::make_unique<Jas2004Application>(
            config.db, config.injection_rate, seed ^ 0xdbull);
    }
    if (config_.admission.webEnabled()) {
        adm::AdmissionConfig admission = config_.admission;
        if (admission.max_concurrent == 0)
            admission.max_concurrent = config_.was_threads;
        admission.min_concurrent = std::min(
            admission.min_concurrent, admission.max_concurrent);
        admission_ = std::make_unique<adm::AdmissionController>(
            admission, queue_);
    }
}

void
SystemUnderTest::start(SimTime end)
{
    DriverConfig driver_config = config_.driver;
    driver_config.injection_rate = config_.injection_rate;
    driver_ = std::make_unique<Driver>(
        driver_config, queue_, rng_() ^ 0xd21eull,
        [this](const Request &request) { handleRequest(request); });
    driver_->start(0, end);
}

void
SystemUnderTest::crash()
{
    down_ = true;
    ++crash_epoch_;
}

void
SystemUnderTest::failJob(const std::shared_ptr<Job> &job,
                         ErrorKind kind)
{
    if (job->failed)
        return;
    job->failed = true;
    const SimTime now = queue_.now();
    if (failure_hook_)
        failure_hook_(job->request, now, kind);
    else
        tracker_.error(job->request, now, 0, kind);
    job->done();
}

void
SystemUnderTest::handleRequest(const Request &request)
{
    if (down_) {
        // Connection refused: fail fast, no WAS thread consumed.
        const SimTime now = queue_.now();
        if (failure_hook_)
            failure_hook_(request, now, ErrorKind::NodeDown);
        else
            tracker_.error(request, now, 0, ErrorKind::NodeDown);
        return;
    }
    if (admission_) {
        admission_->offer(
            [this, request](SimTime) { dispatch(request); },
            [this, request](SimTime at, adm::ShedReason) {
                // Fast reject: a tiny canned response, no WAS
                // thread, no service time charged.
                web_.noteRejected();
                if (failure_hook_)
                    failure_hook_(request, at, ErrorKind::Rejected);
                else
                    tracker_.error(request, at, 0,
                                   ErrorKind::Rejected);
            });
        return;
    }
    dispatch(request);
}

void
SystemUnderTest::dispatch(const Request &request)
{
    pool_.submit([this, request](SimTime, ThreadPool::Done done) {
        auto job = std::make_shared<Job>();
        job->request = request;
        job->profile = &Jas2004Application::profile(request.type);
        job->noise = demandNoise();
        if (admission_) {
            // The admission slot frees with the WAS thread, whatever
            // the request's outcome.
            job->done = [this, done = std::move(done)] {
                done();
                admission_->release();
            };
        } else {
            job->done = std::move(done);
        }
        job->epoch = crash_epoch_;
        advanceJob(job);
    });
}

void
SystemUnderTest::scheduleAdvance(const std::shared_ptr<Job> &job,
                                 SimTime when)
{
    queue_.scheduleAt(when, [this, job] { advanceJob(job); });
}

void
SystemUnderTest::runBurst(const std::shared_ptr<Job> &job,
                          double burst_us, Component component)
{
    if (jobAborted(*job)) {
        failJob(job, ErrorKind::NodeDown);
        return;
    }
    const double quantum = config_.cpu_quantum_us;
    const SimTime now = queue_.now();
    if (burst_us <= quantum) {
        scheduleAdvance(job,
                        scheduler_.run(now, burst_us, component)
                            .completion);
        return;
    }
    const SimTime slice_end =
        scheduler_.run(now, quantum, component).completion;
    const double remaining = burst_us - quantum;
    queue_.scheduleAt(slice_end, [this, job, remaining, component] {
        runBurst(job, remaining, component);
    });
}

double
SystemUnderTest::demandNoise()
{
    const double sigma = config_.demand_sigma;
    return drawLogNormal(rng_, -sigma * sigma / 2.0, sigma);
}

double
SystemUnderTest::jitWarmupFactor(SimTime now, const TxnProfile &profile,
                                 double &compile_us)
{
    // Sample the methods this transaction exercises, record their
    // invocations (driving tier promotion), and compute the slowdown
    // relative to steady-state (hot) code.
    const CodeLayout &layout = profiles_->layout(Component::WasJit);
    const std::uint64_t per_method = std::max<std::uint64_t>(
        1, profile.method_invocations / config_.methods_per_txn);
    double speedup_sum = 0.0;
    for (std::size_t k = 0; k < config_.methods_per_txn; ++k) {
        const std::size_t method = layout.sampleHot(rng_);
        compile_us += jit_.recordInvocations(method, per_method, now);
        speedup_sum += jit_.speedup(method);
    }
    const double avg_speedup =
        speedup_sum / static_cast<double>(config_.methods_per_txn);
    const double factor = config_.jit.reference_speedup / avg_speedup;
    return std::clamp(factor, 0.85, config_.max_jit_slowdown);
}

SimTime
SystemUnderTest::runGc(SimTime now)
{
    const GcEvent event = gc_.collect(now);
    const SimTime mark_end = now + millis(event.mark_ms);
    const SimTime sweep_end = mark_end + millis(event.sweep_ms) +
        millis(event.compact_ms);
    scheduler_.blockAll(now, mark_end, Component::GcMark);
    scheduler_.blockAll(mark_end, sweep_end, Component::GcSweep);
    return sweep_end;
}

void
SystemUnderTest::advanceJob(const std::shared_ptr<Job> &job)
{
    if (jobAborted(*job)) {
        failJob(job, ErrorKind::NodeDown);
        return;
    }
    const SimTime now = queue_.now();
    const TxnProfile &profile = *job->profile;
    const double noise = job->noise;
    const RequestType type = job->request.type;

    switch (job->stage++) {
      case 0: { // web front end, inbound (HTTP only)
        if (!isWebRequest(type)) {
            advanceJob(job);
            return;
        }
        const double container_us =
            web_.handle(type, profile.response_kb);
        const double burst = 0.6 * (profile.web_us * noise +
                                    container_us);
        runBurst(job, burst, Component::Web);
        return;
      }

      case 1: { // kernel, inbound (network / syscalls)
        const double burst = 0.4 * profile.kernel_us * noise;
        runBurst(job, burst, Component::Kernel);
        return;
      }

      case 2: { // JITed application-server code + container
        double compile_us = 0.0;
        const double jit_factor =
            jitWarmupFactor(now, profile, compile_us);
        const double container_us = ejb_.invoke(profile.beans);
        const double burst =
            profile.was_jit_us * noise * jit_factor + container_us;
        job->compile_us = compile_us;
        runBurst(job, burst, Component::WasJit);
        return;
      }

      case 3: { // interpreter / JVM native / JIT compiler itself
        const double burst =
            profile.was_other_us * noise + job->compile_us;
        runBurst(job, burst, Component::WasOther);
        return;
      }

      case 4: { // Java allocation; may trigger a stop-the-world GC
        const auto alloc_bytes = static_cast<std::uint64_t>(
            profile.alloc_bytes * config_.alloc_scale);
        if (!gc_.allocate(alloc_bytes, now)) {
            const SimTime gc_end = runGc(now);
            if (!gc_.allocate(alloc_bytes, gc_end)) {
                const std::uint64_t heap = config_.gc.heap.size_bytes;
                throw std::runtime_error(
                    "a heap of " + std::to_string(heap) + " bytes "
                    "(heap_mb=" + std::to_string(heap >> 20) +
                    ") is too small: an allocation of " +
                    std::to_string(alloc_bytes) +
                    " bytes failed right after a collection left " +
                    std::to_string(gc_.lastLiveBytes()) + " bytes live");
            }
            scheduleAdvance(job, gc_end);
            return;
        }
        advanceJob(job);
        return;
      }

      case 5: { // data tier CPU
        if (remote_db_) {
            // Remote data tier: the fabric/pool/DB-node machinery
            // owns stages 5-7; resume at the outbound kernel stage
            // when the response returns.
            job->stage = 8;
            remote_db_(type, noise,
                       [this, job](const TxnDbOutcome &outcome,
                                   ErrorKind error) {
                           if (error != ErrorKind::None) {
                               failJob(job, error);
                               return;
                           }
                           job->db = outcome;
                           advanceJob(job);
                       });
            return;
        }
        job->db = app_->runTransaction(type);
        const double burst =
            profile.db_us * noise + job->db.cost.cpu_us;
        runBurst(job, burst, Component::Db2);
        return;
      }

      case 6: { // data-tier read I/O
        if (job->db.cost.pages_read == 0) {
            advanceJob(job);
            return;
        }
        const IoResult io = disk_.read(
            now, static_cast<std::uint32_t>(job->db.cost.pages_read));
        disk_blocked_us_ += io.completion - now;
        scheduleAdvance(job, io.completion);
        return;
      }

      case 7: { // log force + async page cleaning
        if (job->db.cost.writebacks > 0) {
            // Asynchronous cleaning: charge the disk, not the request.
            disk_.write(now, job->db.cost.writebacks * 4096);
        }
        if (job->db.cost.log_bytes_forced == 0) {
            advanceJob(job);
            return;
        }
        const IoResult io =
            disk_.write(now, job->db.cost.log_bytes_forced);
        disk_blocked_us_ += io.completion - now;
        scheduleAdvance(job, io.completion);
        return;
      }

      case 8: { // kernel, outbound
        const double burst = 0.6 * profile.kernel_us * noise;
        runBurst(job, burst, Component::Kernel);
        return;
      }

      case 9: { // web response marshalling (HTTP only)
        if (!isWebRequest(type)) {
            advanceJob(job);
            return;
        }
        const double burst = 0.4 * profile.web_us * noise;
        runBurst(job, burst, Component::Web);
        return;
      }

      default: { // complete
        tracker_.complete(job->request, now);
        if (completion_hook_)
            completion_hook_(job->request, now);
        job->done();
        return;
      }
    }
}

VmStatRow
SystemUnderTest::recordVmstatWindow(
    SimTime from, SimTime to,
    const std::array<SimTime, componentCount> &busy_delta,
    SimTime disk_blocked_delta)
{
    VmStatRow row;
    row.time = to;
    const double capacity =
        static_cast<double>((to - from) * config_.cpus);
    if (capacity <= 0.0)
        return row;

    double user = 0.0, system = 0.0;
    for (std::size_t c = 0; c < componentCount; ++c) {
        const auto component = static_cast<Component>(c);
        if (isSystemComponent(component))
            system += static_cast<double>(busy_delta[c]);
        else
            user += static_cast<double>(busy_delta[c]);
    }
    user = std::min(user, capacity);
    system = std::min(system, capacity - user);
    double idle = capacity - user - system;
    double iowait =
        std::min(idle, static_cast<double>(disk_blocked_delta));
    idle -= iowait;

    row.user_pct = user / capacity * 100.0;
    row.system_pct = system / capacity * 100.0;
    row.idle_pct = idle / capacity * 100.0;
    row.iowait_pct = iowait / capacity * 100.0;
    vmstat_.record(row);
    return row;
}

} // namespace jasim
